//! Multi-threaded sorting (the paper's §6.4 scaling experiments) by
//! static ownership.
//!
//! Strategy: each of `T` workers (`std::thread::scope`, matching the
//! paper's thread-per-core execution) owns one contiguous, row-balanced
//! range of the round and runs only the work inside it, so workers never
//! coordinate. The segmented sort carves its rows into tasks — whole-group
//! spans plus the shares of oversized groups — each owning its own
//! disjoint `&mut` rows of the caller's slices, and worker `w` runs the
//! contiguous run of tasks whose first row falls in `[w·n/T, (w+1)·n/T)`.
//! An oversized group is divided across the workers by range
//! partitioning (MPSM-style), under either kernel: each worker range's
//! share of it is stably partitioned on the group's top live byte, and
//! after the join worker `w` gathers the `w`-th row-balanced range of
//! buckets and sorts each bucket by the kernel the serial loop picks for
//! its length. Nothing merges. [`for_each_chunk`] gives worker `w` the
//! `w`-th of `T` equal row ranges. A flat sort is the one-group case
//! ([`GroupBounds::whole`]). Which worker runs what is a function of the
//! input alone, and so is the output.
//!
//! The first worker with a batch runs it on the calling thread (worker 0,
//! unless its range is empty). Worker panics are caught (at the scope
//! boundary, or around that inline batch) and surfaced as a
//! typed [`WorkerPanic`] carrying the worker index, so a dying worker can
//! be degraded around (the caller's buffers may hold partially sorted
//! data and must be treated as garbage) instead of aborting the process.
//! `CancelToken` polls and the `simd.worker.panic` fault point both run
//! once per task, bounding reaction latency to one task.

use crate::key::Key;
use crate::radix::{partition, partition_shift, BUCKETS};
use crate::scratch::{SortScratch, WorkerScratch};
use crate::segmented::{group_stats, sort_groups_by_offsets, GroupBounds, SegmentedSortStats};
use crate::sort::{runs_serially, SortConfig, SortableKey};
use core::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Sort tasks carved per worker: a span closes once it holds
/// `n / (threads · 4)` rows. A worker sorts every task that starts in its
/// range, so the rows it sorts overrun its share by less than one span —
/// a quarter of that share.
const TASKS_PER_WORKER: usize = 4;

/// Scheduler counters of the parallel path (all zero on the serial path
/// and below [`PARALLEL_CUTOFF_ROWS`](crate::PARALLEL_CUTOFF_ROWS)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselCounts {
    /// Tasks run: sort spans, oversized groups' shares and their
    /// post-join bucket ranges, and the row ranges of [`for_each_chunk`]
    /// and [`for_each_worker`]. A function
    /// of the input and the thread count.
    pub dispatched: u64,
    /// Always 0: every worker owns a fixed range, so no task changes
    /// worker. Kept because the benchmark's trace (`spine/src/trace.rs`)
    /// still reads it.
    pub stolen: u64,
    /// Oversized groups range-partitioned across the workers.
    pub split: u64,
}

impl MorselCounts {
    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: MorselCounts) {
        self.dispatched += other.dispatched;
        self.stolen += other.stolen;
        self.split += other.split;
    }

    /// Whether any work was scheduled.
    pub fn is_empty(&self) -> bool {
        *self == MorselCounts::default()
    }
}

/// A worker thread of a parallel sort panicked.
///
/// The input slices are left in an unspecified (partially sorted) state;
/// callers recover by re-running the work from their own pristine inputs
/// (serially or via a fallback path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker whose task panicked.
    pub worker: usize,
}

impl core::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "parallel-sort worker {} panicked", self.worker)
    }
}

impl std::error::Error for WorkerPanic {}

/// Tasks of the segmented sort's first pass, each owning its rows of
/// `(keys, oids)`.
enum Task<'a, K> {
    /// A contiguous span of whole groups with its window of the round's
    /// offsets; sorted group-by-group.
    Span(&'a mut [K], &'a mut [u32], &'a [u32]),
    /// One worker range's share of an oversized group.
    Share(Share<'a, K>),
}

/// One worker range's share of a partitioned group: its rows of the
/// caller's slices, stably scattered by the digit at `shift` into the
/// same rows of the shared buffer, with its bucket counts in `counts`.
struct Share<'a, K> {
    keys: &'a [K],
    oids: &'a [u32],
    to: (&'a mut [K], &'a mut [u32]),
    shift: u32,
    counts: &'a mut [u32; BUCKETS],
}

/// One worker's range of a partitioned group's buckets: gathered from
/// every share of the group (in worker order) into the worker's rows of
/// the caller's slices, then sorted bucket by bucket.
struct BucketRange<'a, K> {
    keys: &'a mut [K],
    oids: &'a mut [u32],
    buckets: Range<usize>,
    /// The group's rows of the shared buffer.
    from: (&'a [K], &'a [u32]),
    /// The group's shares, relative to its first row, and their counts.
    shares: &'a [Range<usize>],
    counts: &'a [[u32; BUCKETS]],
}

/// A group divided across the workers: its rows, its shares relative to
/// its first row, and the shift of the digit it is partitioned on.
struct Split {
    rows: Range<usize>,
    shares: Vec<Range<usize>>,
    shift: u32,
}

/// The groups of `offs` that [`sort_in_ranges`] divides across its
/// `threads` workers: every group of at least `2 · target` rows whose keys
/// are not all equal (a group of equal keys is sorted already and stays
/// in a span), with the shares of it that fall in the workers' row ranges
/// and the shift of its top live byte.
fn oversized<K: Key>(keys: &[K], offs: &[u32], target: usize, threads: usize) -> Vec<Split> {
    let n = keys.len();
    offs.windows(2)
        .filter_map(|w| {
            let rows = w[0] as usize..w[1] as usize;
            if rows.len() < 2 * target {
                return None;
            }
            let shift = partition_shift(&keys[rows.clone()])?;
            let shares = worker_runs(rows.start, rows.len(), n, threads);
            Some(Split {
                rows,
                shares,
                shift,
            })
        })
        .collect()
}

/// The shares of rows `start..start + len` that fall in each of the
/// `threads` worker ranges of an `n`-row round, relative to `start`, in
/// worker order; empty shares are dropped.
fn worker_runs(start: usize, len: usize, n: usize, threads: usize) -> Vec<Range<usize>> {
    let clamp = |row: usize| row.clamp(start, start + len) - start;
    (0..threads)
        .map(|w| clamp(w * n / threads)..clamp((w + 1) * n / threads))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Split the first `len` rows off `rows`, leaving it the rest.
fn take_rows<'a, T>(rows: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = core::mem::take(rows).split_at_mut(len);
    *rows = tail;
    head
}

/// [`take_rows`] on a key slice and an oid slice in lockstep.
fn take_pairs<'a, K>(
    keys: &mut &'a mut [K],
    oids: &mut &'a mut [u32],
    len: usize,
) -> (&'a mut [K], &'a mut [u32]) {
    (take_rows(keys, len), take_rows(oids, len))
}

/// Sort `(keys, oids)` within each group independently, each group by
/// the kernel [`SortableKey::sort_pairs_with_scratch`] picks for its
/// length, on up to `threads` workers, drawing every worker's sort-kernel
/// buffers from `scratch`.
///
/// When the sort [runs serially](crate::runs_serially), the groups are
/// sorted one after another on the calling thread — allocation-free once
/// the scratch is warm, and never an `Err`. Otherwise each worker sorts
/// the tasks of its own row range (thread spawning and task lists
/// allocate; the kernels still do not).
///
/// Scheduling: whole groups are packed into contiguous spans of roughly
/// `n / (threads · 4)` rows, and any single group at least twice that
/// size is divided across the workers: each worker range's share of it is
/// stably partitioned on the group's top live byte into the scratch's
/// shared buffer; after the join, worker `w` gathers the `w`-th
/// row-balanced range of buckets back and sorts each bucket by the kernel
/// picked for its length. Under [`SortKernel::Auto`](crate::SortKernel)
/// every kernel is stable, so the group comes out exactly as the serial
/// sort leaves it; the merge-sort's keys do too, and its ties are the
/// caller's to order. Worker `w` runs the tasks whose first row falls in
/// `[w·n/T, (w+1)·n/T)`. Group-level stats are counted once per *group*
/// from the offsets, so they match the serial path; kernel times and merge
/// counters are what the run credited to the worker scratches.
///
/// Worker panics are caught and returned as a [`WorkerPanic`] carrying
/// the worker index; the slices are then in an unspecified state.
pub fn sort_pairs_in_groups<K: SortableKey>(
    keys: &mut [K],
    oids: &mut [u32],
    groups: &GroupBounds,
    threads: usize,
    cfg: &SortConfig,
    scratch: &mut WorkerScratch,
) -> Result<SegmentedSortStats, WorkerPanic> {
    assert_eq!(keys.len(), oids.len());
    assert_eq!(groups.num_rows(), keys.len(), "group bounds mismatch");
    let threads = threads.max(1);
    let offs = &groups.offsets;
    let before = scratch.credited();
    let mut stats = group_stats(offs);
    if runs_serially(threads, keys.len()) {
        sort_groups_by_offsets(keys, oids, offs, cfg, scratch.serial());
    } else {
        if scratch.workers.len() < threads {
            scratch.workers.resize_with(threads, Default::default);
        }
        stats.morsels = sort_in_ranges(keys, oids, offs, cfg, threads, scratch)?;
    }
    let (phases, merge) = scratch.credited();
    stats.phases = phases.since(before.0);
    stats.merge = merge.since(before.1);
    Ok(stats)
}

/// Carve the groups of `offs` into tasks in row order, each with its
/// first row and its rows taken off the untaken tail of `(keys, oids)`:
/// contiguous spans of whole groups of roughly `target` rows, and one
/// share of every group of `splits` per worker range, with the same rows
/// of `shared` to partition into and the next row of `counts`.
fn carve<'a, K>(
    keys: &'a mut [K],
    oids: &'a mut [u32],
    offs: &'a [u32],
    target: usize,
    splits: &[Split],
    shared: (&'a mut [K], &'a mut [u32]),
    counts: &'a mut [[u32; BUCKETS]],
) -> Vec<(usize, Task<'a, K>)> {
    let mut tasks = Vec::new();
    let (mut kt, mut ot) = (keys, oids);
    // The untaken tail of `shared` starts at row `at`.
    let ((mut st, mut so), mut at) = (shared, 0usize);
    let mut counts = counts.iter_mut();
    let mut splits = splits.iter().peekable();
    let num_groups = offs.len() - 1;
    let mut span_start = 0usize;
    for g in 0..num_groups {
        let first = offs[span_start] as usize;
        let (start, end) = (offs[g] as usize, offs[g + 1] as usize);
        if let Some(split) = splits.next_if(|s| s.rows == (start..end)) {
            if span_start < g {
                let (k, o) = take_pairs(&mut kt, &mut ot, start - first);
                tasks.push((first, Task::Span(k, o, &offs[span_start..=g])));
            }
            take_pairs(&mut st, &mut so, start - at);
            for r in &split.shares {
                let (keys, oids) = take_pairs(&mut kt, &mut ot, r.len());
                let share = Share {
                    keys,
                    oids,
                    to: take_pairs(&mut st, &mut so, r.len()),
                    shift: split.shift,
                    counts: counts.next().expect("one count row per share"),
                };
                tasks.push((start + r.start, Task::Share(share)));
            }
            at = end;
            span_start = g + 1;
        } else if end - first >= target {
            let (k, o) = take_pairs(&mut kt, &mut ot, end - first);
            tasks.push((first, Task::Span(k, o, &offs[span_start..=g + 1])));
            span_start = g + 1;
        }
    }
    if span_start < num_groups {
        let first = offs[span_start] as usize;
        let (k, o) = take_pairs(&mut kt, &mut ot, offs[num_groups] as usize - first);
        tasks.push((first, Task::Span(k, o, &offs[span_start..])));
    }
    tasks
}

/// The parallel path of [`sort_pairs_in_groups`]: each worker sorts the
/// span tasks and partitions the shares of its row range, then, after the
/// join, gathers and sorts its range of every divided group's buckets.
fn sort_in_ranges<K: SortableKey>(
    keys: &mut [K],
    oids: &mut [u32],
    offs: &[u32],
    cfg: &SortConfig,
    threads: usize,
    scratch: &mut WorkerScratch,
) -> Result<MorselCounts, WorkerPanic> {
    let n = keys.len();
    let target = n.div_ceil(threads * TASKS_PER_WORKER).max(1);
    let splits = oversized(keys, offs, target, threads);
    let WorkerScratch {
        workers,
        shared,
        counts: share_counts,
    } = scratch;
    let workers = &mut workers[..threads];
    // Only a round that divides a group grows the shared pair.
    let rows = if splits.is_empty() { 0 } else { n };
    let shares = splits.iter().map(|s| s.shares.len()).sum();
    if share_counts.len() < shares {
        share_counts.resize(shares, [0; BUCKETS]);
    }
    let to = shared.radix_pair::<K>(rows);
    let mut tasks = carve(keys, oids, offs, target, &splits, to, share_counts);
    let mut counts = MorselCounts {
        dispatched: tasks.len() as u64,
        split: splits.len() as u64,
        ..MorselCounts::default()
    };

    let by_row = |&(first, _): &(usize, _)| row_owner(first, n, threads);
    drive(
        &mut tasks,
        by_row,
        workers.iter_mut(),
        |worker, (_, task)| {
            if !task_may_start(cfg) {
                return;
            }
            match task {
                Task::Span(k, o, window) => sort_groups_by_offsets(k, o, window, cfg, worker),
                Task::Share(s) => {
                    let t0 = Instant::now();
                    partition(s.keys, s.oids, s.to.0, s.to.1, s.shift, s.counts);
                    worker.phases.radix_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        },
    )?;
    // A skipped share left its counts stale: stop before reading them.
    if splits.is_empty() || cfg.cancel.check().is_err() {
        return Ok(counts);
    }

    let (from_k, from_o) = shared.radix_pair::<K>(n);
    let from = (&*from_k, &*from_o);
    let mut ranges = bucket_ranges(keys, oids, &splits, from, share_counts, threads);
    counts.dispatched += ranges.len() as u64;
    let by_worker = |&(w, _): &(usize, _)| w;
    drive(
        &mut ranges,
        by_worker,
        workers.iter_mut(),
        |worker, (_, range)| {
            if task_may_start(cfg) {
                gather_and_sort(range, cfg, worker)
            }
        },
    )?;
    Ok(counts)
}

/// Fault injection and cancellation, once as a worker starts a sort or
/// partition task, so reaction latency is bounded by one task. `false`
/// once the token has fired: the task is skipped, and so is every later
/// one; the caller re-checks the token and discards the garbage round.
fn task_may_start(cfg: &SortConfig) -> bool {
    if mcs_faults::fault_point!(mcs_faults::points::SIMD_WORKER_PANIC) {
        panic!("injected fault: {}", mcs_faults::points::SIMD_WORKER_PANIC);
    }
    cfg.cancel.check().is_ok()
}

/// Deal every partitioned group's buckets to the workers: worker `w` gets
/// the buckets whose middle row falls in the `w`-th of `threads` equal
/// shares of the group's rows (so each range is contiguous and within
/// half a bucket of balanced), with those rows of `(keys, oids)`. The
/// ranges come back with their worker, ordered by worker and then row.
fn bucket_ranges<'a, K>(
    keys: &'a mut [K],
    oids: &'a mut [u32],
    splits: &'a [Split],
    from: (&'a [K], &'a [u32]),
    counts: &'a [[u32; BUCKETS]],
    threads: usize,
) -> Vec<(usize, BucketRange<'a, K>)> {
    let mut ranges = Vec::with_capacity(splits.len() * threads);
    let (mut kt, mut ot, mut at) = (keys, oids, 0usize);
    let mut share_counts = counts;
    for split in splits {
        let (counts, rest) = share_counts.split_at(split.shares.len());
        share_counts = rest;
        let len = split.rows.len();
        let mut total = [0u32; BUCKETS];
        for c in counts {
            for (t, &x) in total.iter_mut().zip(c) {
                *t += x;
            }
        }
        take_pairs(&mut kt, &mut ot, split.rows.start - at);
        at = split.rows.end;
        let from = (&from.0[split.rows.clone()], &from.1[split.rows.clone()]);
        // The worker whose share of the group holds the middle row of the
        // bucket of `count` rows that starts at the group's row `row`:
        // monotone along the buckets, so every worker's are contiguous.
        let owner = |row: usize, count: u32| {
            ((2 * row + count as usize) * threads / (2 * len)).min(threads - 1)
        };
        let (mut first, mut first_row, mut row) = (0, 0, 0);
        for (b, &count) in total.iter().enumerate() {
            let w = owner(row, count);
            row += count as usize;
            if total.get(b + 1).map(|&next| owner(row, next)) == Some(w) {
                continue;
            }
            let (k, o) = take_pairs(&mut kt, &mut ot, row - first_row);
            if row > first_row {
                let range = BucketRange {
                    keys: k,
                    oids: o,
                    buckets: first..b + 1,
                    from,
                    shares: &split.shares,
                    counts,
                };
                ranges.push((w, range));
            }
            (first, first_row) = (b + 1, row);
        }
    }
    // Row order within each worker: the ranges are disjoint slices.
    ranges.sort_unstable_by_key(|(w, r)| (*w, r.keys.as_ptr() as usize));
    ranges
}

/// Gather a worker's bucket range from every share of its group (share
/// by share, so each bucket keeps the group's row order), then sort each
/// bucket as a group of its own through the serial loop: the sort the
/// serial path runs on the whole group, restricted to rows that share the
/// partition digit.
fn gather_and_sort<K: SortableKey>(
    r: &mut BucketRange<'_, K>,
    cfg: &SortConfig,
    worker: &mut SortScratch,
) {
    let t0 = Instant::now();
    // The buckets' offsets in the worker's rows, and each one's next
    // write row.
    let buckets = r.buckets.len();
    let mut offs = [0u32; BUCKETS + 1];
    for (i, b) in r.buckets.clone().enumerate() {
        offs[i + 1] = offs[i] + r.counts.iter().map(|c| c[b]).sum::<u32>();
    }
    let mut cursors = offs;
    for (share, counts) in r.shares.iter().zip(r.counts) {
        let mut at = share.start + counts[..r.buckets.start].iter().sum::<u32>() as usize;
        for (cursor, &len) in cursors.iter_mut().zip(&counts[r.buckets.clone()]) {
            let (to, len) = (*cursor as usize, len as usize);
            r.keys[to..to + len].copy_from_slice(&r.from.0[at..at + len]);
            r.oids[to..to + len].copy_from_slice(&r.from.1[at..at + len]);
            *cursor += len as u32;
            at += len;
        }
    }
    worker.phases.radix_ns += t0.elapsed().as_nanos() as u64;
    sort_groups_by_offsets(r.keys, r.oids, &offs[..=buckets], cfg, worker);
}

/// The worker whose row range `[w·rows/workers, (w+1)·rows/workers)`
/// holds `row`.
fn row_owner(row: usize, rows: usize, workers: usize) -> usize {
    ((row + 1) * workers - 1) / rows.max(1)
}

/// Run `tasks` on the workers: worker `w` runs the contiguous run of
/// tasks that `owner` gives it — non-decreasing along `tasks`, below the
/// number of `states` — in order, each handed to `run` with the `w`-th of
/// `states`. The first worker with a task runs on the calling thread,
/// every other one on a scoped thread; a worker without a task spawns
/// none. A panicking worker is reported as the lowest such index.
fn drive<T: Send, W: Send>(
    tasks: &mut [T],
    owner: impl Fn(&T) -> usize,
    states: impl IntoIterator<Item = W>,
    run: impl Fn(&mut W, &mut T) + Sync,
) -> Result<(), WorkerPanic> {
    let work = |mut state: W, batch: &mut [T]| {
        for task in batch {
            run(&mut state, task);
        }
    };
    let work = &work;
    let mut rest = tasks;
    let mut jobs = states.into_iter().enumerate().filter_map(|(w, state)| {
        let len = rest.iter().take_while(|t| owner(t) == w).count();
        (len > 0).then(|| (w, take_rows(&mut rest, len), state))
    });
    let inline = jobs.next();
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .map(|(w, batch, state)| (w, scope.spawn(move || work(state, batch))))
            .collect();
        let mut joined = match inline {
            Some((worker, batch, state)) => catch_unwind(AssertUnwindSafe(|| work(state, batch)))
                .map_err(|_| WorkerPanic { worker }),
            None => Ok(()),
        };
        for (worker, h) in handles {
            if h.join().is_err() && joined.is_ok() {
                joined = Err(WorkerPanic { worker });
            }
        }
        joined
    });
    debug_assert!(joined.is_err() || rest.is_empty(), "a task has no worker");
    joined
}

/// Parallel iteration over `threads` equal row ranges of `rows`, used by
/// the executor's lookup gather: worker `w` runs `f(start, chunk)` once
/// on its own sub-slice `chunk = rows[start..start + chunk.len()]`,
/// `start = w·n/threads`. An input that
/// [runs serially](crate::runs_serially) is one call `f(0, rows)`, which
/// allocates nothing. Returns the scheduler counters (all zero on the
/// serial path). A panicking worker panics the caller.
// Inlined so a serial call compiles the caller's loop in place: without
// the hint the threads = 1 massage steps of `analytic_mix`, when they
// still ran through here, were ~2.5× slower (3.6 → 8.7 ms per op on a
// 2-core VM).
#[inline]
pub fn for_each_chunk<T: Send>(
    rows: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) -> MorselCounts {
    let threads = threads.max(1);
    let n = rows.len();
    if runs_serially(threads, n) {
        f(0, rows);
        return MorselCounts::default();
    }
    let mut rest = rows;
    let mut chunks: Vec<_> = (0..threads)
        .map(|w| {
            let start = w * n / threads;
            (start, take_rows(&mut rest, (w + 1) * n / threads - start))
        })
        .collect();
    for_each_worker(&mut chunks, |(start, chunk)| f(*start, chunk))
}

/// Run `f` once on each of `parts`, part `w` on worker `w` — the first
/// on the calling thread, every other one on a scoped thread — for a
/// pass whose caller has split the work itself (the same row range of
/// several buffers, or a row range scanned into a list of the worker's
/// own, which [`for_each_chunk`] cannot hand out). A
/// panicking worker panics the caller. Returns the scheduler counters.
pub fn for_each_worker<T: Send>(parts: &mut [T], f: impl Fn(&mut T) + Sync) -> MorselCounts {
    let workers = parts.len();
    let mut tasks: Vec<(usize, &mut T)> = parts.iter_mut().enumerate().collect();
    if let Err(p) = drive(&mut tasks, |&(w, _)| w, 0..workers, |_, (_, part)| f(part)) {
        panic!("{p}");
    }
    MorselCounts {
        dispatched: workers as u64,
        ..MorselCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MergeCounters, SortKernel, PARALLEL_CUTOFF_ROWS};

    /// The serial path through a fresh scratch.
    fn sort_serial<K: SortableKey>(
        keys: &mut [K],
        oids: &mut [u32],
        groups: &GroupBounds,
        cfg: &SortConfig,
    ) -> SegmentedSortStats {
        sort_pairs_in_groups(keys, oids, groups, 1, cfg, &mut WorkerScratch::new())
            .expect("the serial path spawns no worker")
    }

    /// `threads` workers through a fresh scratch.
    fn sort_parallel<K: SortableKey>(
        keys: &mut [K],
        oids: &mut [u32],
        groups: &GroupBounds,
        threads: usize,
        cfg: &SortConfig,
    ) -> Result<SegmentedSortStats, WorkerPanic> {
        sort_pairs_in_groups(keys, oids, groups, threads, cfg, &mut WorkerScratch::new())
    }

    /// The paper's merge-sort kernel.
    fn merge_sort() -> SortConfig {
        SortConfig {
            kernel: SortKernel::MergeSort,
            ..SortConfig::default()
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// `n` distinct keys in scrambled order (an odd multiplier is a
    /// bijection mod 2^32), so oids are byte-comparable across kernels'
    /// tie orders.
    fn distinct_keys(n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B1) ^ 0x5555)
            .collect()
    }

    #[test]
    fn parallel_flat_sort_matches_serial() {
        // One whole-relation group: both kernels partition it across the
        // workers.
        let n = 50_000;
        let mut state = 12345u64;
        let orig: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
        let whole = GroupBounds::whole(n as usize);

        for threads in [1usize, 2, 3, 4, 8] {
            let run = |cfg: &SortConfig| {
                let mut keys = orig.clone();
                let mut oids: Vec<u32> = (0..n as u32).collect();
                let s = sort_parallel(&mut keys, &mut oids, &whole, threads, cfg)
                    .expect("no injected faults");
                (keys, oids, s)
            };
            let (keys, oids, s) = run(&merge_sort());
            assert_eq!(s.morsels.split, u64::from(threads > 1));
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            for i in 0..n as usize {
                assert_eq!(keys[i], orig[oids[i] as usize]);
            }
            // `Auto` never merges.
            let (auto_keys, _, s) = run(&SortConfig::default());
            assert_eq!(s.morsels.split, u64::from(threads > 1), "t{threads}");
            assert_eq!(s.merge.comparisons, 0, "t{threads}");
            assert_eq!(
                run(&SortConfig::default()).2.morsels,
                s.morsels,
                "t{threads}"
            );
            assert_eq!(auto_keys, keys);
        }
    }

    #[test]
    fn parallel_segmented_matches_serial() {
        let n = 40_000usize;
        let mut state = 777u64;
        let keys0: Vec<u16> = (0..n).map(|_| xorshift(&mut state) as u16).collect();
        // Groups of varying sizes.
        let mut offsets = vec![0u32];
        let mut at = 0u32;
        let mut g = 1u32;
        while (at as usize) < n {
            at = (at + g * 37 % 501 + 1).min(n as u32);
            offsets.push(at);
            g += 1;
        }
        let groups = GroupBounds::from_offsets(offsets);
        let cfg = SortConfig::default();

        let mut k1 = keys0.clone();
        let mut o1: Vec<u32> = (0..n as u32).collect();
        let s1 = sort_serial(&mut k1, &mut o1, &groups, &cfg);

        let mut k2 = keys0.clone();
        let mut o2: Vec<u32> = (0..n as u32).collect();
        let s2 = sort_parallel(&mut k2, &mut o2, &groups, 4, &cfg).expect("no injected faults");

        assert_eq!(k1, k2);
        assert_eq!(s1.invocations, s2.invocations);
        assert_eq!(s1.codes_sorted, s2.codes_sorted);
        assert!(s2.morsels.dispatched > 0, "parallel path must schedule");
    }

    #[test]
    fn oversized_group_is_partitioned_under_both_kernels() {
        // One group holding ~95% of the rows is partitioned across the
        // workers and sorts to exactly what the serial path leaves.
        let n = 60_000usize;
        let big = 57_000u32;
        let keys0 = distinct_keys(n);
        let mut offsets = vec![0u32, big];
        let mut at = big;
        while (at as usize) < n {
            at = (at + 100).min(n as u32);
            offsets.push(at);
        }
        let groups = GroupBounds::from_offsets(offsets);

        for cfg in [SortConfig::default(), merge_sort()] {
            let kernel = cfg.kernel;
            let mut k1 = keys0.clone();
            let mut o1: Vec<u32> = (0..n as u32).collect();
            let s1 = sort_serial(&mut k1, &mut o1, &groups, &cfg);
            for threads in [2usize, 4, 8] {
                let run = || {
                    let mut k2 = keys0.clone();
                    let mut o2: Vec<u32> = (0..n as u32).collect();
                    let s2 = sort_parallel(&mut k2, &mut o2, &groups, threads, &cfg)
                        .expect("no injected faults");
                    (k2, o2, s2)
                };
                let (k2, o2, s2) = run();
                let at = format!("{kernel:?}/t{threads}");
                assert_eq!(k2, k1, "{at}: keys differ from the serial sort");
                assert_eq!(o2, o1, "{at}: oids differ from the serial sort");
                assert_eq!(s2.invocations, s1.invocations, "{at}");
                assert_eq!(s2.codes_sorted, s1.codes_sorted, "{at}");
                assert_eq!(s2.max_group, s1.max_group, "{at}");
                assert_eq!(s2.morsels.split, 1, "{at}: the giant group is divided");
                assert_eq!(run().2.morsels, s2.morsels, "{at}");
                if kernel == SortKernel::Auto {
                    assert_eq!(s2.merge.comparisons, 0, "{at}: Auto never merges");
                }
            }
        }
    }

    #[test]
    fn two_partitioned_groups_match_serial_under_both_kernels() {
        // Two oversized groups around and after runs of small ones: both
        // are partitioned at every thread count, so the post-join pass
        // deals the buckets of several groups.
        let n = 60_000usize;
        let keys0 = distinct_keys(n);
        let mut offsets = vec![0u32, 24_000];
        offsets.extend((1..=40).map(|i| 24_000 + 100 * i));
        offsets.push(56_000);
        offsets.extend((1..=40).map(|i| 56_000 + 100 * i));
        let groups = GroupBounds::from_offsets(offsets);

        for cfg in [SortConfig::default(), merge_sort()] {
            let kernel = cfg.kernel;
            let mut k1 = keys0.clone();
            let mut o1: Vec<u32> = (0..n as u32).collect();
            let s1 = sort_serial(&mut k1, &mut o1, &groups, &cfg);

            for threads in [2usize, 4, 8] {
                let mut k2 = keys0.clone();
                let mut o2: Vec<u32> = (0..n as u32).collect();
                let s2 = sort_parallel(&mut k2, &mut o2, &groups, threads, &cfg)
                    .expect("no injected faults");
                let at = format!("{kernel:?}/t{threads}");
                assert_eq!(k2, k1, "{at}");
                assert_eq!(o2, o1, "{at}");
                assert_eq!(s2.morsels.split, 2, "{at}");
                assert_eq!(s2.invocations, s1.invocations, "{at}");
                assert_eq!(s2.codes_sorted, s1.codes_sorted, "{at}");
                assert_eq!(s2.max_group, s1.max_group, "{at}");
            }
        }
    }

    #[test]
    fn stats_are_per_call_on_a_shared_scratch() {
        // Kernel stats ride in the scratch: a MergeSort call's merge
        // counts and phase times must not leak into the next call's
        // report on the same scratch, serially or in parallel. The keys'
        // top byte takes two values, so at two threads each worker
        // merge-sorts one bucket of half the rows, far past the 4 KiB
        // in-cache threshold.
        let n = 50_000usize;
        let mut state = 2024u64;
        let keys0: Vec<u32> = (0..n)
            .map(|_| xorshift(&mut state) as u32 & 0x8000_FFFF)
            .collect();
        let whole = GroupBounds::whole(n);
        let small_cache = SortConfig {
            in_cache_bytes: 4096,
            ..merge_sort()
        };
        for threads in [1usize, 2] {
            let mut scratch = WorkerScratch::new();
            let mut run = |cfg: &SortConfig| {
                let mut keys = keys0.clone();
                let mut oids: Vec<u32> = (0..n as u32).collect();
                sort_pairs_in_groups(&mut keys, &mut oids, &whole, threads, cfg, &mut scratch)
                    .expect("no injected faults")
            };
            let merged = run(&small_cache);
            assert!(merged.merge.comparisons > 0, "t{threads}");
            assert!(merged.phases.in_register_ns > 0, "t{threads}");
            let auto = run(&SortConfig::default());
            assert_eq!(auto.merge, MergeCounters::default(), "t{threads}");
            // No merge-sort phase: only the radix and small kernels ran.
            let p = auto.phases;
            assert_eq!(p.total_ns(), p.radix_ns + p.small_sort_ns, "t{threads}");
            assert!(p.radix_ns > 0, "t{threads}");
        }
    }

    #[test]
    fn each_worker_runs_the_tasks_of_its_row_range() {
        // Small spans, one giant group (rows 5000..30000), then small
        // spans. Keys are distinct, so oids are byte-comparable too.
        let n = 40_000usize;
        let (giant, giant_end) = (5_000usize, 30_000usize);
        let mut offsets: Vec<u32> = (0..=50).map(|i| 100 * i).collect();
        offsets.push(giant_end as u32);
        offsets.extend((1..=100).map(|i| 30_000 + 100 * i));
        let groups = GroupBounds::from_offsets(offsets);
        let keys0 = distinct_keys(n);
        let run = |threads: usize, cfg: &SortConfig| {
            let mut keys = keys0.clone();
            let mut oids: Vec<u32> = (0..n as u32).collect();
            let s = sort_parallel(&mut keys, &mut oids, &groups, threads, cfg)
                .expect("no injected faults");
            (keys, oids, s)
        };
        // The carving of `sort_in_ranges`: first rows, and divided groups.
        let carved = |threads: usize| {
            let target = n.div_ceil(threads * TASKS_PER_WORKER);
            let (mut keys, mut oids) = (keys0.clone(), vec![0u32; n]);
            let splits = oversized(&keys, &groups.offsets, target, threads);
            let (mut to_k, mut to_o) = (vec![0u32; n], vec![0u32; n]);
            let mut counts = vec![[0u32; BUCKETS]; threads];
            let to = (&mut to_k[..], &mut to_o[..]);
            let offs = &groups.offsets;
            let tasks = carve(&mut keys, &mut oids, offs, target, &splits, to, &mut counts);
            let firsts: Vec<usize> = tasks.iter().map(|(first, _)| *first).collect();
            (firsts, splits.len())
        };

        for threads in [2usize, 4, 8] {
            let (firsts, splits) = carved(threads);
            let range = |w: usize| w * n / threads..(w + 1) * n / threads;
            let mut ids: Vec<(usize, usize)> = firsts.iter().copied().zip(0..).collect();
            let mut logs = vec![Vec::new(); threads];
            let by_row = |&(first, _): &(usize, usize)| row_owner(first, n, threads);
            drive(&mut ids, by_row, logs.iter_mut(), |log, &mut (_, id)| {
                log.push(id)
            })
            .expect("no panic");
            // Every task runs exactly once, in row order across workers,
            // on the worker whose row range holds its first row.
            assert_eq!(logs.concat(), (0..firsts.len()).collect::<Vec<_>>());
            for (w, log) in logs.iter().enumerate() {
                assert!(log.iter().all(|&id| range(w).contains(&firsts[id])));
            }
            // The giant group is divided into the shares of the worker
            // ranges it overlaps, each run by that worker.
            let giant_rows = giant..giant_end;
            let shares: Vec<usize> = firsts
                .iter()
                .copied()
                .filter(|f| giant_rows.contains(f))
                .collect();
            let starts = (1..threads).map(|w| range(w).start);
            let inside = starts.filter(|&r| giant < r && r < giant_end);
            assert_eq!(
                shares,
                [giant].into_iter().chain(inside).collect::<Vec<_>>()
            );
            assert_eq!(splits, 1, "t{threads}");

            // Under both kernels: its tasks plus one bucket range per
            // worker, the same on every run, and no merge (the ~100-row
            // buckets never reach the merge-sort's loser tree).
            for cfg in [SortConfig::default(), merge_sort()] {
                let at = format!("{:?}/t{threads}", cfg.kernel);
                let serial = run(1, &cfg);
                let (keys, oids, s) = run(threads, &cfg);
                assert_eq!((keys, oids), (serial.0, serial.1), "{at}");
                let tasks = (firsts.len() + threads) as u64;
                assert_eq!(s.morsels.dispatched, tasks, "{at}");
                assert_eq!(run(threads, &cfg).2.morsels, s.morsels, "{at}");
                assert_eq!((s.morsels.split, s.morsels.stolen), (1, 0), "{at}");
                assert_eq!(s.merge.comparisons, 0, "{at}");
            }
        }
    }

    #[test]
    fn parallel_cutoff_is_the_constant() {
        // Below the cutoff the sort runs serially whatever the thread
        // count (dispatched == 0); from the cutoff on it schedules.
        assert_eq!(PARALLEL_CUTOFF_ROWS, 4096);
        for (n, parallel) in [
            (PARALLEL_CUTOFF_ROWS - 1, false),
            (PARALLEL_CUTOFF_ROWS, true),
        ] {
            let mut state = 99u64;
            let keys0: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
            let groups = GroupBounds::from_offsets(vec![0, (n / 2) as u32, n as u32]);
            let mut k = keys0.clone();
            let mut o: Vec<u32> = (0..n as u32).collect();
            let s = sort_parallel(&mut k, &mut o, &groups, 4, &SortConfig::default()).unwrap();
            assert_eq!(s.morsels.dispatched > 0, parallel, "n = {n}");
            let mut k1 = keys0.clone();
            let mut o1: Vec<u32> = (0..n as u32).collect();
            sort_serial(&mut k1, &mut o1, &groups, &SortConfig::default());
            assert_eq!(k, k1);
        }
    }

    #[test]
    fn for_each_chunk_covers_everything() {
        let n = 10_000usize;
        let mut rows = vec![usize::MAX; n];
        let counts = for_each_chunk(&mut rows, 4, |start, chunk| {
            for (i, r) in (start..).zip(chunk.iter_mut()) {
                assert_eq!(*r, usize::MAX, "row {i} handed out twice");
                *r = i;
            }
        });
        assert_eq!(rows, (0..n).collect::<Vec<_>>());
        assert_eq!(counts.dispatched, 4, "one range per worker");
    }

    #[test]
    fn for_each_chunk_serial_below_cutoff() {
        let mut rows = vec![(); 100];
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let counts = for_each_chunk(&mut rows, 8, |start, chunk| {
            assert_eq!((start, chunk.len()), (0, 100));
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(calls.into_inner(), 1);
        assert_eq!(counts, MorselCounts::default());
    }

    #[test]
    fn worker_panic_error_formats() {
        let e = WorkerPanic { worker: 3 };
        assert!(e.to_string().contains("worker 3"));
    }
}
