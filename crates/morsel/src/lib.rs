//! # mcs-morsel
//!
//! A dependency-free work-stealing scheduler for morsel-driven
//! parallelism, after the worker-local, skew-resistant design of MPSM
//! (Albutiu et al., *Massively Parallel Sort-Merge Joins in Main Memory
//! Multi-Core Database Systems*, VLDB'12) and the morsel-driven execution
//! of HyPer (Leis et al., SIGMOD'14).
//!
//! The unit of work is a *morsel*: a small, fixed-size slice of the input
//! (a row range, or a span of whole groups). Workers are seeded with
//! contiguous morsel ranges — mirroring the static partitioning the
//! scheduler replaces, so a uniform workload runs with zero steals — and
//! each worker consumes its own deque LIFO (newest first, cache-warm).
//! A worker that runs dry *steals a chunk* (half the victim's deque, FIFO
//! side) from the first non-empty victim, so one straggling giant morsel
//! no longer leaves the other workers idle.
//!
//! The implementation is a lock-sharded deque — one `Mutex<VecDeque>`
//! per worker — rather than a lock-free Chase-Lev deque: morsels are
//! sized so that scheduling cost is amortized over thousands of rows,
//! correctness is pinned by tests, and the locks are uncontended except
//! at the steal points the design exists to create.
//!
//! ```
//! use mcs_morsel::MorselQueue;
//!
//! let mut q = MorselQueue::new(2);
//! q.seed_partitioned((0..8).collect());
//! let mut got = Vec::new();
//! while let Some((item, _stolen)) = q.pop(0) {
//!     got.push(item);
//! }
//! got.sort_unstable();
//! assert_eq!(got, (0..8).collect::<Vec<_>>());
//! assert_eq!(q.counts().dispatched, 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Scheduler counters, harvested with [`MorselQueue::counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselCounts {
    /// Morsels handed to workers for execution (own-deque pops *and*
    /// steals; every executed morsel counts exactly once).
    pub dispatched: u64,
    /// Morsels that migrated to another worker via a steal. Chunked
    /// steals count every transferred morsel, executed or re-stolen.
    pub stolen: u64,
    /// Oversized work items the caller split into multiple morsels
    /// (counted by the caller via [`MorselQueue::note_split`]).
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
        self.dispatched == 0 && self.stolen == 0 && self.split == 0
    }
}

/// A work-stealing queue of morsels over `W` workers.
///
/// Usage contract: seed every morsel (with [`MorselQueue::seed_partitioned`]
/// or [`MorselQueue::push`]) *before* workers start popping — the queue
/// distributes a fixed batch of work; it is not a producer/consumer
/// channel. [`MorselQueue::pop`] returning `None` then means the batch is
/// globally exhausted (every shard empty), so each worker simply loops
/// until `None`.
#[derive(Debug)]
pub struct MorselQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    dispatched: AtomicU64,
    stolen: AtomicU64,
    split: AtomicU64,
}

impl<T> MorselQueue<T> {
    /// A queue over `workers` worker deques (`workers >= 1` enforced).
    pub fn new(workers: usize) -> MorselQueue<T> {
        let workers = workers.max(1);
        MorselQueue {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            dispatched: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            split: AtomicU64::new(0),
        }
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// A poisoned shard only means another worker panicked mid-pop; the
    /// deque itself is always consistent, so keep scheduling (the caller
    /// surfaces the worker panic through its own join handling).
    fn lock(&self, w: usize) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.shards[w].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Seed `items` across the workers in contiguous ranges: item `i` of
    /// `m` goes to worker `i·W/m`. This mirrors the static partitioning
    /// the scheduler replaces — a balanced workload never steals — while
    /// skewed ranges get rebalanced by stealing.
    pub fn seed_partitioned(&mut self, items: Vec<T>) {
        let w = self.workers();
        let m = items.len();
        for (i, item) in items.into_iter().enumerate() {
            let shard = (i * w / m.max(1)).min(w - 1);
            self.lock(shard).push_back(item);
        }
    }

    /// Push one morsel onto `worker`'s deque (back side: the owner pops
    /// it next, LIFO).
    pub fn push(&self, worker: usize, item: T) {
        self.lock(worker).push_back(item);
    }

    /// Record that the caller split one oversized work item into
    /// multiple morsels.
    pub fn note_split(&self, items: u64) {
        self.split.fetch_add(items, Ordering::Relaxed);
    }

    /// Take the next morsel for `worker`: its own deque first (LIFO),
    /// then a chunked steal — half of the first non-empty victim's deque,
    /// FIFO side — with the surplus re-queued locally. Returns the morsel
    /// and whether it arrived via a steal; `None` means every deque is
    /// empty (the batch is exhausted — see the usage contract).
    pub fn pop(&self, worker: usize) -> Option<(T, bool)> {
        if let Some(item) = self.lock(worker).pop_back() {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            return Some((item, false));
        }
        let w = self.workers();
        for off in 1..w {
            let victim = (worker + off) % w;
            let batch = {
                let mut v = self.lock(victim);
                let k = v.len();
                if k == 0 {
                    continue;
                }
                // Chunked steal: take the older half so the victim keeps
                // its cache-warm LIFO end.
                let take = k.div_ceil(2);
                v.drain(..take).collect::<Vec<T>>()
            };
            self.stolen.fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            let mut it = batch.into_iter();
            let first = it.next().expect("stole a non-empty batch");
            let mut own = self.lock(worker);
            for item in it {
                own.push_back(item);
            }
            return Some((first, true));
        }
        None
    }

    /// Snapshot of the scheduler counters.
    pub fn counts(&self) -> MorselCounts {
        MorselCounts {
            dispatched: self.dispatched.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            split: self.split.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn owner_pops_lifo_stealer_takes_fifo_half() {
        let q: MorselQueue<u32> = MorselQueue::new(2);
        for v in [10u32, 11, 12, 13] {
            q.push(0, v);
        }
        // Owner: newest first.
        assert_eq!(q.pop(0), Some((13, false)));
        // Stealer: takes the older half (two of three → [10, 11]),
        // executes the first, keeps the rest locally.
        assert_eq!(q.pop(1), Some((10, true)));
        assert_eq!(q.pop(1), Some((11, false)));
        // The victim keeps its own remaining newest item.
        assert_eq!(q.pop(0), Some((12, false)));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
        let c = q.counts();
        assert_eq!(c.dispatched, 4);
        assert_eq!(c.stolen, 2);
    }

    #[test]
    fn seeding_is_contiguous_range_partitioned() {
        let mut q: MorselQueue<usize> = MorselQueue::new(4);
        q.seed_partitioned((0..8).collect());
        // Worker 2 owns items 4 and 5; LIFO pops 5 first.
        assert_eq!(q.pop(2), Some((5, false)));
        assert_eq!(q.pop(2), Some((4, false)));
    }

    #[test]
    fn every_item_executes_exactly_once_under_concurrency() {
        let workers = 4usize;
        let items = 10_000usize;
        let q: MorselQueue<usize> = MorselQueue::new(workers);
        // Heavily skewed seeding: everything lands on worker 0.
        for i in 0..items {
            q.push(0, i);
        }
        let seen = Mutex::new(BTreeSet::new());
        std::thread::scope(|s| {
            for w in 0..workers {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    while let Some((item, _)) = q.pop(w) {
                        assert!(
                            seen.lock().unwrap().insert(item),
                            "item {item} executed twice"
                        );
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), items);
        let c = q.counts();
        assert_eq!(c.dispatched, items as u64);
    }

    #[test]
    fn split_counter_is_caller_driven() {
        let q: MorselQueue<u32> = MorselQueue::new(1);
        q.note_split(3);
        assert_eq!(q.counts().split, 3);
        assert!(!q.counts().is_empty());
        assert!(MorselCounts::default().is_empty());
    }

    #[test]
    fn counts_accumulate() {
        let mut a = MorselCounts {
            dispatched: 1,
            stolen: 2,
            split: 3,
        };
        a.add(MorselCounts {
            dispatched: 10,
            stolen: 20,
            split: 30,
        });
        assert_eq!(
            a,
            MorselCounts {
                dispatched: 11,
                stolen: 22,
                split: 33,
            }
        );
    }

    #[test]
    fn empty_queue_pops_none_for_every_worker() {
        let q: MorselQueue<u8> = MorselQueue::new(3);
        for w in 0..3 {
            assert_eq!(q.pop(w), None);
        }
        assert_eq!(q.counts(), MorselCounts::default());
    }
}
