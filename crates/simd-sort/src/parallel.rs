//! Multi-threaded sorting (the paper's §6.4 scaling experiments) by
//! static ownership.
//!
//! Strategy: each of `T` workers (`std::thread::scope`, matching the
//! paper's thread-per-core execution) owns one contiguous, row-balanced
//! range of the round and runs only the work inside it, so workers never
//! coordinate. The segmented sort carves its rows into tasks — whole-group
//! spans plus, under the merge-sort, slices of oversized groups — each
//! owning its own disjoint `&mut` rows of the caller's slices, and worker
//! `w` runs the contiguous run of tasks whose first row falls in
//! `[w·n/T, (w+1)·n/T)`. Once every worker has joined, a second pass over
//! the same workers merges each split group, dealt by the same rule.
//! [`for_each_chunk`] gives worker `w` the `w`-th of `T` equal row
//! ranges. A flat sort is the one-group case ([`GroupBounds::whole`]).
//! Which worker runs what is a function of the input alone, and so is the
//! output.
//!
//! Worker panics are caught at the scope boundary and surfaced as a typed
//! [`WorkerPanic`] carrying the worker index, so a dying worker can be
//! degraded around (the caller's buffers may hold partially sorted data
//! and must be treated as garbage) instead of aborting the process.
//! `CancelToken` polls and the `simd.worker.panic` fault point both run
//! once per task, bounding reaction latency to one task.

use crate::multiway::multiway_merge;
use crate::scratch::{SortScratch, WorkerScratch};
use crate::segmented::{group_stats, sort_groups_by_offsets, GroupBounds, SegmentedSortStats};
use crate::sort::{SortConfig, SortKernel, SortableKey, PARALLEL_CUTOFF_ROWS};
use core::ops::Range;

/// Sort tasks carved per worker: a span closes once it holds
/// `n / (threads · 4)` rows. A worker sorts every task that starts in its
/// range, so the rows it sorts overrun its share by less than one span —
/// a quarter of that share — or by one oversized group.
const TASKS_PER_WORKER: usize = 4;

/// Split boundaries inside an oversized group are aligned down to this
/// many rows — the in-register kernel's largest block (`L·L` for the
/// 8-lane banks) — so every slice but the last enters the sort at whole-
/// block granularity.
const SPLIT_ALIGN: usize = 64;

/// Scheduler counters of the parallel path (all zero on the serial path
/// and below [`PARALLEL_CUTOFF_ROWS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselCounts {
    /// Tasks run: sort spans and slices, split-group merges and
    /// [`for_each_chunk`] ranges. A function of the input, the kernel and
    /// the thread count.
    pub dispatched: u64,
    /// Always 0: every worker owns a fixed range, so no task changes
    /// worker. Kept because the benchmark's trace (`spine/src/trace.rs`)
    /// still reads it.
    pub stolen: u64,
    /// Oversized groups split into slices (only under
    /// [`SortKernel::MergeSort`]).
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
    /// One slice of an oversized (split) group.
    Slice(&'a mut [K], &'a mut [u32]),
}

/// A split group: its first row, and its slice runs relative to it.
type Split = (usize, Vec<Range<usize>>);

/// Split `len` rows into `parts` near-equal runs, boundaries aligned down
/// to [`SPLIT_ALIGN`] (collapsed boundaries are dropped, so tiny inputs
/// may yield fewer runs).
fn split_runs(len: usize, parts: usize) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::with_capacity(parts);
    let mut at = 0;
    for p in 1..parts {
        let mut cut = len * p / parts;
        cut -= cut % SPLIT_ALIGN;
        if cut > at {
            runs.push(at..cut);
            at = cut;
        }
    }
    runs.push(at..len);
    runs
}

/// Split the first `len` rows off `rows`, leaving it the rest.
fn take_rows<'a, T>(rows: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = core::mem::take(rows).split_at_mut(len);
    *rows = tail;
    head
}

/// Sort `(keys, oids)` within each group independently, each group by
/// the kernel [`SortableKey::sort_pairs_with_scratch`] picks for its
/// length, on up to `threads` workers, drawing every worker's sort-kernel
/// buffers from `scratch`.
///
/// At `threads == 1`, or below [`PARALLEL_CUTOFF_ROWS`], the groups are
/// sorted one after another on the calling thread — allocation-free once
/// the scratch is warm, and never an `Err`. Otherwise each worker sorts
/// the tasks of its own row range (thread spawning, task lists and
/// split-group merges allocate; the kernels still do not).
///
/// Scheduling: whole groups are packed into contiguous spans of roughly
/// `n / (threads · 4)` rows. Under [`SortKernel::MergeSort`] any single
/// group at least twice that size is split at 64-row-aligned boundaries
/// into slices, sorted independently, and merged after the join; under
/// [`SortKernel::Auto`] it stays one span (the merge would cost more than
/// the split saves). Worker `w` runs the tasks whose first row falls in
/// `[w·n/T, (w+1)·n/T)`, and the split-group merges are dealt the same
/// way. Group-level stats are counted once per *group* from the offsets,
/// so they match the serial path; kernel times and merge counters are
/// what the run credited to the worker scratches.
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
    if threads == 1 || keys.len() < PARALLEL_CUTOFF_ROWS {
        sort_groups_by_offsets(keys, oids, offs, cfg, scratch.serial());
    } else {
        if scratch.workers.len() < threads {
            scratch.workers.resize_with(threads, Default::default);
        }
        let workers = &mut scratch.workers[..threads];
        stats.morsels = sort_in_ranges(keys, oids, offs, cfg, workers)?;
    }
    let (phases, merge) = scratch.credited();
    stats.phases = phases.since(before.0);
    stats.merge = merge.since(before.1);
    Ok(stats)
}

/// Carve the groups of `offs` into tasks in row order, each with its
/// first row and its rows taken off the untaken tail of `(keys, oids)`:
/// contiguous spans of whole groups of roughly `target` rows, and — when
/// `split_oversized` — slices of every group of at least `2 · target`
/// rows. Returns the tasks and the split groups.
fn carve<'a, K>(
    keys: &'a mut [K],
    oids: &'a mut [u32],
    offs: &'a [u32],
    target: usize,
    split_oversized: bool,
) -> (Vec<(usize, Task<'a, K>)>, Vec<Split>) {
    let mut splits: Vec<Split> = Vec::new();
    let mut tasks = Vec::new();
    let (mut kt, mut ot) = (keys, oids);
    let mut take = |len: usize| (take_rows(&mut kt, len), take_rows(&mut ot, len));
    let num_groups = offs.len() - 1;
    let mut span_start = 0usize;
    for g in 0..num_groups {
        let (first, len) = (offs[span_start] as usize, (offs[g + 1] - offs[g]) as usize);
        if split_oversized && len >= 2 * target {
            if span_start < g {
                let (k, o) = take(offs[g] as usize - first);
                tasks.push((first, Task::Span(k, o, &offs[span_start..=g])));
            }
            let runs = split_runs(len, len.div_ceil(target));
            for r in &runs {
                let (k, o) = take(r.len());
                tasks.push((offs[g] as usize + r.start, Task::Slice(k, o)));
            }
            splits.push((offs[g] as usize, runs));
            span_start = g + 1;
        } else if offs[g + 1] as usize - first >= target {
            let (k, o) = take(offs[g + 1] as usize - first);
            tasks.push((first, Task::Span(k, o, &offs[span_start..=g + 1])));
            span_start = g + 1;
        }
    }
    if span_start < num_groups {
        let first = offs[span_start] as usize;
        let (k, o) = take(offs[num_groups] as usize - first);
        tasks.push((first, Task::Span(k, o, &offs[span_start..])));
    }
    (tasks, splits)
}

/// The parallel path of [`sort_pairs_in_groups`]: each worker sorts the
/// span and slice tasks of its row range, then, after the join, merges
/// the split groups of its row range.
fn sort_in_ranges<K: SortableKey>(
    keys: &mut [K],
    oids: &mut [u32],
    offs: &[u32],
    cfg: &SortConfig,
    workers: &mut [SortScratch],
) -> Result<MorselCounts, WorkerPanic> {
    let (n, threads) = (keys.len(), workers.len());
    // Only the merge-sort splits: its slices end in a loser-tree merge
    // anyway. Under `Auto` the split-group merge alone costs about as
    // much as radix-sorting the whole group on one worker, so a big group
    // stays one span.
    let target = n.div_ceil(threads * TASKS_PER_WORKER).max(1);
    let split_oversized = cfg.kernel == SortKernel::MergeSort;
    let (tasks, splits) = carve(&mut *keys, &mut *oids, offs, target, split_oversized);
    let mut counts = MorselCounts {
        dispatched: tasks.len() as u64,
        split: splits.len() as u64,
        ..MorselCounts::default()
    };
    let batches = deal(tasks, n, threads);
    drive(batches, workers.iter_mut(), |worker, task| {
        // Fault injection and cancellation run once per task: reaction
        // latency is bounded by one task. A fired token skips every
        // remaining task; the caller re-checks the token and discards the
        // garbage round.
        if mcs_faults::fault_point!(mcs_faults::points::SIMD_WORKER_PANIC) {
            panic!("injected fault: {}", mcs_faults::points::SIMD_WORKER_PANIC);
        }
        if cfg.cancel.check().is_err() {
            return;
        }
        match task {
            Task::Span(k, o, window) => sort_groups_by_offsets(k, o, window, cfg, worker),
            Task::Slice(k, o) => K::sort_pairs_with_scratch(k, o, cfg, worker),
        }
    })?;
    if splits.is_empty() || cfg.cancel.check().is_err() {
        return Ok(counts);
    }

    // Every slice is sorted: merge each split group back into group order.
    let mut merges = Vec::with_capacity(splits.len());
    let (mut kt, mut ot, mut at) = (keys, oids, 0usize);
    for (start, runs) in &splits {
        let len = runs[runs.len() - 1].end;
        take_rows(&mut kt, start - at);
        take_rows(&mut ot, start - at);
        let merge = (take_rows(&mut kt, len), take_rows(&mut ot, len), &runs[..]);
        merges.push((*start, merge));
        at = start + len;
    }
    counts.dispatched += merges.len() as u64;
    let batches = deal(merges, n, threads);
    drive(batches, workers.iter_mut(), |worker, (k, o, runs)| {
        merge_split(k, o, runs, cfg, worker)
    })?;
    Ok(counts)
}

/// Merge the sorted slices `runs` of one split group back into group
/// order, through the worker's merge scratch.
fn merge_split<K: SortableKey>(
    keys: &mut [K],
    oids: &mut [u32],
    runs: &[Range<usize>],
    cfg: &SortConfig,
    worker: &mut SortScratch,
) {
    let mut out_k = vec![K::default(); keys.len()];
    let mut out_o = vec![0u32; keys.len()];
    multiway_merge(
        (keys, oids, None),
        (&mut out_k, &mut out_o, None),
        runs,
        0,
        &mut worker.merge,
        &cfg.cancel,
    );
    if cfg.cancel.check().is_err() {
        return; // round is garbage anyway; don't publish a partial merge
    }
    keys.copy_from_slice(&out_k);
    oids.copy_from_slice(&out_o);
}

/// Deal `tasks` — each with its first row, in row order, over `rows`
/// rows — to `workers` owners: worker `w` gets the contiguous run of
/// tasks whose first row falls in `[w·rows/workers, (w+1)·rows/workers)`.
fn deal<T>(tasks: Vec<(usize, T)>, rows: usize, workers: usize) -> Vec<Vec<T>> {
    let mut batches: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (first, task) in tasks {
        batches[(first * workers / rows.max(1)).min(workers - 1)].push(task);
    }
    batches
}

/// Run batch `w` of `batches` on a scoped thread as worker `w`, owning
/// the `w`-th of `states`: its tasks in order, each handed to `run` with
/// the state. An empty batch spawns no thread. A panicking worker is
/// reported as the lowest such index.
fn drive<T: Send, W: Send>(
    batches: Vec<Vec<T>>,
    states: impl IntoIterator<Item = W>,
    run: impl Fn(&mut W, T) + Sync,
) -> Result<(), WorkerPanic> {
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .zip(states)
            .enumerate()
            .filter(|(_, (batch, _))| !batch.is_empty())
            .map(|(w, (batch, mut state))| {
                let handle = scope.spawn(move || {
                    for task in batch {
                        run(&mut state, task);
                    }
                });
                (w, handle)
            })
            .collect();
        let mut joined = Ok(());
        for (worker, h) in handles {
            if h.join().is_err() && joined.is_ok() {
                joined = Err(WorkerPanic { worker });
            }
        }
        joined
    })
}

/// Parallel iteration over `threads` equal row ranges of `rows`, used by
/// the massage kernel and the executor's gather and boundary scans:
/// worker `w` runs `f(start, chunk)` once on its own sub-slice
/// `chunk = rows[start..start + chunk.len()]`, `start = w·n/threads`.
/// Inputs shorter than [`PARALLEL_CUTOFF_ROWS`] run as one serial call
/// `f(0, rows)`. A pass that writes no rows (a scan) tiles a zero-sized
/// slice, e.g. `&mut vec![(); n]`, which allocates nothing.
///
/// Returns the per-range results in row order, and the scheduler
/// counters (all zero on the serial path). With `R = ()` the result
/// vector allocates nothing either. A panicking worker panics the caller.
pub fn for_each_chunk<T: Send, R: Default + Send>(
    rows: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> (Vec<R>, MorselCounts) {
    let threads = threads.max(1);
    let n = rows.len();
    if threads == 1 || n < PARALLEL_CUTOFF_ROWS {
        return (vec![f(0, rows)], MorselCounts::default());
    }
    let mut results: Vec<R> = Vec::new();
    results.resize_with(threads, R::default);
    let mut rest = rows;
    let batches = results
        .iter_mut()
        .enumerate()
        .map(|(w, slot)| {
            let start = w * n / threads;
            vec![(
                start,
                take_rows(&mut rest, (w + 1) * n / threads - start),
                slot,
            )]
        })
        .collect();
    if let Err(p) = drive(batches, 0..threads, |_, (start, chunk, slot)| {
        *slot = f(start, chunk)
    }) {
        panic!("{p}");
    }
    let counts = MorselCounts {
        dispatched: threads as u64,
        ..MorselCounts::default()
    };
    (results, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MergeCounters;

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

    /// The one kernel that splits oversized groups.
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

    #[test]
    fn parallel_flat_sort_matches_serial() {
        // One whole-relation group: the merge-sort splits it into slices
        // and merges them after the join; `Auto` sorts it as one task.
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
            let (auto_keys, _, s) = run(&SortConfig::default());
            assert_eq!(s.morsels.split, 0, "Auto never splits (t{threads})");
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
    fn oversized_group_is_split_and_merged_correctly() {
        // One group holding ~95% of the rows forces the split-slice path.
        let n = 60_000usize;
        let big = 57_000u32;
        let mut state = 4242u64;
        let keys0: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
        let mut offsets = vec![0u32, big];
        let mut at = big;
        while (at as usize) < n {
            at = (at + 100).min(n as u32);
            offsets.push(at);
        }
        let groups = GroupBounds::from_offsets(offsets);
        let cfg = merge_sort();

        let mut k1 = keys0.clone();
        let mut o1: Vec<u32> = (0..n as u32).collect();
        let s1 = sort_serial(&mut k1, &mut o1, &groups, &cfg);

        let mut k2 = keys0.clone();
        let mut o2: Vec<u32> = (0..n as u32).collect();
        let s2 = sort_parallel(&mut k2, &mut o2, &groups, 4, &cfg).expect("no injected faults");

        assert_eq!(k1, k2, "split+merge must equal the serial group sort");
        assert_eq!(s1.invocations, s2.invocations);
        assert_eq!(s1.codes_sorted, s2.codes_sorted);
        assert_eq!(s1.max_group, s2.max_group);
        assert!(s2.morsels.split >= 1, "the giant group must have split");
        // oids form a permutation and point back at the original keys.
        for i in 0..n {
            assert_eq!(k2[i], keys0[o2[i] as usize]);
        }

        // `Auto` sorts the giant group whole, to the same keys.
        let mut k3 = keys0.clone();
        let mut o3: Vec<u32> = (0..n as u32).collect();
        let s3 = sort_parallel(&mut k3, &mut o3, &groups, 4, &SortConfig::default())
            .expect("no injected faults");
        assert_eq!(s3.morsels.split, 0, "Auto must not split");
        assert_eq!(k3, k1);
    }

    #[test]
    fn two_split_groups_merge_after_the_join() {
        // Two oversized groups around and after runs of small ones: both
        // split at every thread count, so the post-join pass merges
        // several split groups. Keys are distinct (an odd multiplier is a
        // bijection mod 2^32), so oids are byte-comparable too.
        let n = 60_000usize;
        let keys0: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B1) ^ 0x5555)
            .collect();
        let mut offsets = vec![0u32, 24_000];
        offsets.extend((1..=40).map(|i| 24_000 + 100 * i));
        offsets.push(56_000);
        offsets.extend((1..=40).map(|i| 56_000 + 100 * i));
        let groups = GroupBounds::from_offsets(offsets);
        let cfg = merge_sort();

        let mut k1 = keys0.clone();
        let mut o1: Vec<u32> = (0..n as u32).collect();
        let s1 = sort_serial(&mut k1, &mut o1, &groups, &cfg);

        for threads in [2usize, 4, 8] {
            let mut k2 = keys0.clone();
            let mut o2: Vec<u32> = (0..n as u32).collect();
            let s2 = sort_parallel(&mut k2, &mut o2, &groups, threads, &cfg)
                .expect("no injected faults");
            assert_eq!(k2, k1, "t{threads}");
            assert_eq!(o2, o1, "t{threads}");
            assert_eq!(s2.morsels.split, 2, "t{threads}");
            assert_eq!(s2.invocations, s1.invocations, "t{threads}");
            assert_eq!(s2.codes_sorted, s1.codes_sorted, "t{threads}");
            assert_eq!(s2.max_group, s1.max_group, "t{threads}");
            assert!(s2.merge.comparisons > 0, "t{threads}: merges credited");
        }
    }

    #[test]
    fn stats_are_per_call_on_a_shared_scratch() {
        // Kernel stats ride in the scratch: a MergeSort call's merge
        // counts and phase times must not leak into the next call's
        // report on the same scratch, serially or in parallel.
        let n = 50_000usize;
        let mut state = 2024u64;
        let keys0: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
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
            let p = auto.phases;
            assert_eq!(
                (p.in_register_ns, p.in_cache_merge_ns, p.multiway_merge_ns),
                (0, 0, 0),
                "t{threads}"
            );
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
        let keys0: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B1) ^ 0x5555)
            .collect();
        let run = |threads: usize, cfg: &SortConfig| {
            let mut keys = keys0.clone();
            let mut oids: Vec<u32> = (0..n as u32).collect();
            let s = sort_parallel(&mut keys, &mut oids, &groups, threads, cfg)
                .expect("no injected faults");
            (keys, oids, s)
        };
        // The carving of `sort_in_ranges`: first rows, and split groups.
        let carved = |threads: usize, split: bool| {
            let target = n.div_ceil(threads * TASKS_PER_WORKER);
            let (mut keys, mut oids) = (keys0.clone(), vec![0u32; n]);
            let (tasks, splits) = carve(&mut keys, &mut oids, &groups.offsets, target, split);
            let firsts: Vec<usize> = tasks.iter().map(|(first, _)| *first).collect();
            (firsts, splits.len())
        };
        let (serial_auto, serial_merge) = (run(1, &SortConfig::default()), run(1, &merge_sort()));

        for threads in [2usize, 4, 8] {
            let (firsts, _) = carved(threads, false);
            let range = |w: usize| w * n / threads..(w + 1) * n / threads;
            let ids = firsts.iter().enumerate().map(|(id, &first)| (first, id));
            let mut logs = vec![Vec::new(); threads];
            drive(
                deal(ids.collect(), n, threads),
                logs.iter_mut(),
                |log, id| log.push(id),
            )
            .expect("no panic");
            // Every task runs exactly once, in row order across workers,
            // on the worker whose row range holds its first row.
            assert_eq!(logs.concat(), (0..firsts.len()).collect::<Vec<_>>());
            for (w, log) in logs.iter().enumerate() {
                assert!(log.iter().all(|&id| range(w).contains(&firsts[id])));
            }
            // Under `Auto` the giant group lies inside one span task; that
            // task's worker runs only the tasks its row range holds.
            let holder = firsts.partition_point(|&first| first <= giant) - 1;
            assert!(firsts[holder + 1] >= giant_end, "t{threads}: {firsts:?}");
            let w = firsts[holder] * threads / n;
            let held: Vec<usize> = (0..firsts.len())
                .filter(|&id| range(w).contains(&firsts[id]))
                .collect();
            assert_eq!(logs[w], held, "t{threads}");

            let (keys, oids, s) = run(threads, &SortConfig::default());
            assert_eq!((keys, oids), (serial_auto.0.clone(), serial_auto.1.clone()));
            assert_eq!(s.morsels.dispatched, firsts.len() as u64, "t{threads}");
            assert_eq!((s.morsels.split, s.morsels.stolen), (0, 0), "t{threads}");

            // The merge-sort still splits the giant group, and its tasks
            // plus one merge per split group are what it dispatches.
            let (firsts, splits) = carved(threads, true);
            let (keys, oids, s) = run(threads, &merge_sort());
            assert_eq!(keys, serial_merge.0, "t{threads}");
            assert_eq!(oids, serial_merge.1, "t{threads}");
            assert!(s.morsels.split >= 1, "t{threads}");
            assert_eq!(s.morsels.split, splits as u64, "t{threads}");
            assert_eq!(
                s.morsels.dispatched,
                (firsts.len() + splits) as u64,
                "t{threads}"
            );
            assert_eq!(s.morsels.stolen, 0, "t{threads}");
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
    fn split_bounds_are_aligned_and_cover() {
        // The runs tile `0..len` in order, each non-empty, with every
        // internal cut on a `SPLIT_ALIGN` boundary.
        fn assert_tiles(len: usize, parts: usize) {
            let runs = split_runs(len, parts);
            assert_eq!(runs.first().unwrap().start, 0);
            assert_eq!(runs.last().unwrap().end, len);
            assert!(runs.iter().all(|r| !r.is_empty()));
            for w in runs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert_eq!(w[0].end % SPLIT_ALIGN, 0);
            }
        }
        assert_tiles(10_000, 5);
        assert_eq!(split_runs(10_000, 5).len(), 5);
        // Tiny input: collapsed boundaries are dropped, never empty runs.
        assert_tiles(70, 4);
    }

    #[test]
    fn for_each_chunk_covers_everything() {
        let n = 10_000usize;
        let mut rows = vec![0usize; n];
        let (sums, counts) = for_each_chunk(&mut rows, 4, |start, chunk| {
            for (i, r) in (start..).zip(chunk.iter_mut()) {
                *r = i;
            }
            (start, chunk.len())
        });
        assert_eq!(rows, (0..n).collect::<Vec<_>>());
        // Results come back in row order, tiling `0..n`.
        assert_eq!(sums.len() as u64, counts.dispatched);
        assert_eq!(counts.dispatched, 4, "one range per worker");
        let mut at = 0;
        for (start, len) in sums {
            assert_eq!(start, at);
            at += len;
        }
        assert_eq!(at, n);
    }

    #[test]
    fn for_each_chunk_serial_below_cutoff() {
        let mut rows = vec![(); 100];
        let (calls, counts) = for_each_chunk(&mut rows, 8, |start, chunk| {
            assert_eq!((start, chunk.len()), (0, 100));
            1
        });
        assert_eq!(calls, vec![1]);
        assert_eq!(counts, MorselCounts::default());
    }

    #[test]
    fn worker_panic_error_formats() {
        let e = WorkerPanic { worker: 3 };
        assert!(e.to_string().contains("worker 3"));
    }
}
