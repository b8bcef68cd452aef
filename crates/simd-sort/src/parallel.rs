//! Multi-threaded sorting (the paper's §6.4 scaling experiments),
//! morsel-driven.
//!
//! Strategy: carve the work into morsels — whole-group spans plus split
//! slices of oversized groups for the segmented sort, contiguous row
//! ranges for [`for_each_chunk`] — each owning its own disjoint `&mut`
//! rows of the caller's slices, seed them range-partitioned across a
//! [`MorselQueue`], and let `T` workers (`std::thread::scope`, matching
//! the paper's thread-per-core execution) pull morsels until the queue is
//! dry. A worker that finishes its seed early steals from stragglers, so
//! skewed group distributions no longer leave workers idle behind one
//! giant group. Under the merge-sort an oversized group is split into
//! slices sorted as separate morsels; once every worker has joined, a
//! second pass over the same workers merges each split group as one
//! morsel. A flat sort is the one-group case ([`GroupBounds::whole`]).
//!
//! Worker panics are caught at the scope boundary and surfaced as a typed
//! [`WorkerPanic`] carrying the worker index, so a dying worker can be
//! degraded around (the caller's buffers may hold partially sorted data
//! and must be treated as garbage) instead of aborting the process.
//! `CancelToken` polls and the `simd.worker.panic` fault point both live
//! inside the morsel loop, bounding reaction latency to one morsel.

use crate::multiway::multiway_merge;
use crate::scratch::{SortScratch, WorkerScratch};
use crate::segmented::{group_stats, sort_groups_by_offsets, GroupBounds, SegmentedSortStats};
use crate::sort::{SortConfig, SortKernel, SortableKey, PARALLEL_CUTOFF_ROWS};
use core::ops::Range;
use mcs_morsel::{MorselCounts, MorselQueue};

/// Morsels seeded per worker on a balanced input: finer than one-per-
/// worker so stragglers leave stealable work, coarse enough that the
/// queue's lock traffic stays negligible against a morsel's sort cost.
const MORSELS_PER_WORKER: usize = 4;

/// Split boundaries inside an oversized group are aligned down to this
/// many rows — the in-register kernel's largest block (`L·L` for the
/// 8-lane banks) — so every slice but the last enters the sort at whole-
/// block granularity.
const SPLIT_ALIGN: usize = 64;

/// A worker thread of a parallel sort panicked.
///
/// The input slices are left in an unspecified (partially sorted) state;
/// callers recover by re-running the work from their own pristine inputs
/// (serially or via a fallback path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker whose morsel loop died.
    pub worker: usize,
}

impl core::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "parallel-sort worker {} panicked", self.worker)
    }
}

impl std::error::Error for WorkerPanic {}

/// Work items of the morsel-driven segmented sort's first pass, each
/// owning its rows of `(keys, oids)`.
enum Task<'a, K> {
    /// A contiguous span of whole groups with its window of the round's
    /// offsets; sorted group-by-group.
    Span(&'a mut [K], &'a mut [u32], &'a [u32]),
    /// One slice of an oversized (split) group.
    Slice(&'a mut [K], &'a mut [u32]),
}

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
/// the scratch is warm, and never an `Err`. Otherwise the groups are
/// distributed as work-stealing morsels (thread spawning, queue seeding
/// and split-group merges allocate; the kernels still do not).
///
/// Scheduling: whole groups are packed into contiguous spans of roughly
/// `n / (threads · 4)` rows. Under [`SortKernel::MergeSort`] any single
/// group at least twice that size is split at 64-row-aligned boundaries
/// into slice morsels, sorted independently, and merged after the join,
/// one morsel per split group; under [`SortKernel::Auto`] it stays one
/// span (the merge would cost more than the split saves). All morsels are
/// seeded range-partitioned (a balanced input steals nothing); workers
/// pull LIFO locally and steal half a straggler's deque when dry.
/// Group-level stats are counted once per *group* from the offsets, so
/// they match the serial path; kernel times and merge counters are what
/// the run credited to the worker scratches.
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
        stats.morsels = sort_morsels(keys, oids, offs, cfg, workers)?;
    }
    let (phases, merge) = scratch.credited();
    stats.phases = phases.since(before.0);
    stats.merge = merge.since(before.1);
    Ok(stats)
}

/// The parallel path of [`sort_pairs_in_groups`]: sort the span and
/// slice morsels, join, then merge every split group as one morsel.
fn sort_morsels<K: SortableKey>(
    keys: &mut [K],
    oids: &mut [u32],
    offs: &[u32],
    cfg: &SortConfig,
    workers: &mut [SortScratch],
) -> Result<MorselCounts, WorkerPanic> {
    let threads = workers.len();
    // Carve groups into morsels in row order, each taking its rows off
    // the untaken tail: contiguous spans of whole groups of roughly
    // `target` rows, with oversized groups split into slices. Only the
    // merge-sort splits: its slices end in a loser-tree merge anyway.
    // Under `Auto` the split-group merge alone costs about as much as
    // radix-sorting the whole group on one worker, so a big group stays
    // one span morsel.
    let target = keys.len().div_ceil(threads * MORSELS_PER_WORKER).max(1);
    let split_oversized = cfg.kernel == SortKernel::MergeSort;
    // Split groups: first row, and slice runs relative to it.
    let mut splits: Vec<(usize, Vec<Range<usize>>)> = Vec::new();
    let mut tasks: Vec<Task<K>> = Vec::new();
    let (mut kt, mut ot) = (&mut *keys, &mut *oids);
    let mut take = |len: usize| (take_rows(&mut kt, len), take_rows(&mut ot, len));
    let num_groups = offs.len() - 1;
    let mut span_start = 0usize;
    for g in 0..num_groups {
        let len = (offs[g + 1] - offs[g]) as usize;
        if split_oversized && len >= 2 * target {
            if span_start < g {
                let (k, o) = take((offs[g] - offs[span_start]) as usize);
                tasks.push(Task::Span(k, o, &offs[span_start..=g]));
            }
            let runs = split_runs(len, len.div_ceil(target));
            for r in &runs {
                let (k, o) = take(r.len());
                tasks.push(Task::Slice(k, o));
            }
            splits.push((offs[g] as usize, runs));
            span_start = g + 1;
        } else if (offs[g + 1] - offs[span_start]) as usize >= target {
            let (k, o) = take((offs[g + 1] - offs[span_start]) as usize);
            tasks.push(Task::Span(k, o, &offs[span_start..=g + 1]));
            span_start = g + 1;
        }
    }
    if span_start < num_groups {
        let (k, o) = take((offs[num_groups] - offs[span_start]) as usize);
        tasks.push(Task::Span(k, o, &offs[span_start..]));
    }

    let mut queue = MorselQueue::new(threads);
    queue.note_split(splits.len() as u64);
    queue.seed_partitioned(tasks);
    drive(&queue, workers.iter_mut(), |worker, task| {
        // Fault injection and cancellation live in the morsel loop:
        // reaction latency is bounded by one morsel. A fired token skips
        // every remaining morsel; the caller re-checks the token and
        // discards the garbage round.
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
    let mut counts = queue.counts();
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
        merges.push((take_rows(&mut kt, len), take_rows(&mut ot, len), &runs[..]));
        at = start + len;
    }
    let mut queue = MorselQueue::new(threads.min(merges.len()));
    queue.seed_partitioned(merges);
    drive(&queue, workers.iter_mut(), |worker, (k, o, runs)| {
        merge_split(k, o, runs, cfg, worker)
    })?;
    counts.add(queue.counts());
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

/// Run every morsel of `queue` on one scoped thread per worker queue,
/// worker `w` owning the `w`-th of `states`: it pops (or steals) morsels
/// until the queue is dry, handing each to `run` with its state. A
/// panicking worker is reported as the lowest such index.
fn drive<T: Send, W: Send>(
    queue: &MorselQueue<T>,
    states: impl IntoIterator<Item = W>,
    run: impl Fn(&mut W, T) + Sync,
) -> Result<(), WorkerPanic> {
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .take(queue.workers())
            .enumerate()
            .map(|(w, mut state)| {
                scope.spawn(move || {
                    while let Some((task, _stolen)) = queue.pop(w) {
                        run(&mut state, task);
                    }
                })
            })
            .collect();
        let mut joined = Ok(());
        for (worker, h) in handles.into_iter().enumerate() {
            if h.join().is_err() && joined.is_ok() {
                joined = Err(WorkerPanic { worker });
            }
        }
        joined
    })
}

/// Parallel iteration over row-range morsels of `rows`, used by the
/// massage kernel and the executor's gather and boundary scans:
/// `f(start, chunk)` runs once per morsel with the morsel's own
/// sub-slice `chunk = rows[start..start + chunk.len()]`. The morsels tile
/// `rows` and are seeded range-partitioned and work-stolen like the
/// sorts. Inputs shorter than [`PARALLEL_CUTOFF_ROWS`] run as one serial
/// call `f(0, rows)`. A pass that writes no rows (a scan) tiles a
/// zero-sized slice, e.g. `&mut vec![(); n]`, which allocates nothing.
///
/// Returns the per-morsel results in row order, and the scheduler
/// counters (all zero on the serial path). With `R = ()` the result
/// vector allocates nothing either. A panicking morsel panics the caller.
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
    let target = n.div_ceil(threads * MORSELS_PER_WORKER).max(1);
    let mut results: Vec<R> = Vec::new();
    results.resize_with(n.div_ceil(target), R::default);
    let mut queue = MorselQueue::new(threads);
    queue.seed_partitioned(
        rows.chunks_mut(target)
            .zip(results.iter_mut())
            .enumerate()
            .map(|(i, (chunk, slot))| (i * target, chunk, slot))
            .collect(),
    );
    if let Err(p) = drive(&queue, 0..threads, |_, (start, chunk, slot)| {
        *slot = f(start, chunk)
    }) {
        panic!("{p}");
    }
    let counts = queue.counts();
    drop(queue);
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
        // and finisher-merges them; `Auto` sorts it as one morsel.
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
    fn skewed_groups_eventually_steal() {
        // Steals are scheduling-dependent (a worker must go dry while
        // another still holds queued morsels), so retry a handful of
        // times; byte-identical output is asserted on *every* attempt.
        let n = 50_000usize;
        let big = 47_500u32; // 95% of rows in one group
        let mut state = 31337u64;
        let keys0: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
        let mut offsets = vec![0u32, big];
        let mut at = big;
        while (at as usize) < n {
            at = (at + 50).min(n as u32);
            offsets.push(at);
        }
        let groups = GroupBounds::from_offsets(offsets);
        let cfg = SortConfig::default();

        let mut k1 = keys0.clone();
        let mut o1: Vec<u32> = (0..n as u32).collect();
        sort_serial(&mut k1, &mut o1, &groups, &cfg);

        let mut saw_steal = false;
        for _ in 0..50 {
            let mut k2 = keys0.clone();
            let mut o2: Vec<u32> = (0..n as u32).collect();
            let s = sort_parallel(&mut k2, &mut o2, &groups, 4, &cfg).expect("no injected faults");
            assert_eq!(k1, k2, "steal schedule must not change the keys");
            if s.morsels.stolen > 0 {
                saw_steal = true;
                break;
            }
        }
        assert!(saw_steal, "no steal observed across 50 skewed runs");
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
