//! Caller-provided scratch memory for the sort kernels.
//!
//! Every phase of the three-phase merge-sort ([`crate::sort`]) and the
//! out-of-cache loser tree ([`crate::multiway`]) needs working memory:
//! the padded ping-pong key/oid buffer pairs, the per-pass run list, and
//! the loser-tree node arrays. The radix kernel ([`crate::radix`]) uses
//! the first buffer of each pair as the other side of its scatter
//! ping-pong; the packed-word kernel a word buffer bounded by its
//! crossover length. Every sort and merge entry point draws them from a
//! [`SortScratch`] (or the [`MergeScratch`] inside it) owned by the
//! caller, growing each buffer monotonically to its high-water mark so a
//! warm caller performs no heap allocation at all; only the two
//! convenience functions [`crate::sort_pairs`] / [`crate::sort_pairs_with`]
//! build a fresh scratch per call.
//!
//! [`SortScratch`] holds one buffer pair per key bank (`u16`/`u32`/`u64`)
//! so a single instance serves every round of a multi-column sort
//! regardless of the plan's bank choices. [`WorkerScratch`] holds one per
//! worker of the parallel segmented sort, plus the buffer its workers
//! partition oversized groups into.
//!
//! The scratch also carries what its kernels report: each kernel credits
//! its time to the scratch's [`PhaseTimes`], each loser tree its matches
//! to the [`MergeScratch`]'s [`MergeCounters`]. Both only grow; a caller
//! reports the difference across its own call, so nothing has to be
//! drained before or harvested after a sort.
//!
//! Scratch contents are *not* meaningful between calls: every user
//! overwrites what it reads. A caller that aborts mid-sort (e.g. on an
//! injected fault) leaves garbage behind, which is fine — the next call
//! resizes and overwrites.

use crate::key::{Bank, Key};
use crate::multiway::MergeCounters;
use crate::phase::PhaseTimes;
use crate::radix::BUCKETS;
use core::ops::Range;

/// The padded ping-pong key buffer pairs, one per bank. A key type
/// borrows its own pair through `Key`'s sealed supertrait, which is what
/// lets generic kernels take the whole [`SortScratch`]. (`pub` only
/// because that supertrait names it; the crate does not export it.)
#[derive(Debug, Default)]
pub struct KeyBufs {
    /// 16-bit-bank key buffers.
    pub(crate) k16: (Vec<u16>, Vec<u16>),
    /// 32-bit-bank key buffers.
    pub(crate) k32: (Vec<u32>, Vec<u32>),
    /// 64-bit-bank key buffers.
    pub(crate) k64: (Vec<u64>, Vec<u64>),
}

/// Reusable working memory for one serial sort stream.
///
/// `Default`/`new` construct an empty scratch that allocates nothing
/// until first use; buffers then grow monotonically and are reused by
/// later calls.
#[derive(Debug, Default)]
pub struct SortScratch {
    /// Padded ping-pong key buffers per bank.
    pub(crate) keys: KeyBufs,
    /// Padded ping-pong oid buffers (shared by all banks).
    pub(crate) oids: (Vec<u32>, Vec<u32>),
    /// Run list reused by each out-of-cache merge pass.
    pub(crate) runs: Vec<Range<usize>>,
    /// Loser-tree node arrays.
    pub(crate) merge: MergeScratch,
    /// Sort words of the packed-word kernel (`key << 32 | oid`, or
    /// `key bits ‖ row index` in the 64-bit bank); never longer than the
    /// packed/radix crossover.
    pub(crate) packed: Vec<u64>,
    /// The 64-bit bank's `(key, oid)` pairs in sorted-word order.
    pub(crate) packed_wide: Vec<(u64, u32)>,
    /// Time every kernel run on this scratch has spent, by kernel.
    pub(crate) phases: PhaseTimes,
}

impl SortScratch {
    /// An empty scratch; nothing is allocated until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The radix kernel's scatter pair — the first key buffer of `K`'s
    /// bank and the first oid buffer — as `n`-row slices, grown to `n`
    /// rows first (never shrunk). Of [`WorkerScratch`]'s shared scratch,
    /// the pair oversized groups are partitioned into.
    pub(crate) fn radix_pair<K: Key>(&mut self, n: usize) -> (&mut [K], &mut [u32]) {
        let (kbuf, obuf) = (&mut K::bufs(&mut self.keys).0, &mut self.oids.0);
        if kbuf.len() < n {
            kbuf.resize(n, K::default());
        }
        if obuf.len() < n {
            obuf.resize(n, 0);
        }
        (&mut kbuf[..n], &mut obuf[..n])
    }

    /// Total bytes currently held across all buffers.
    pub fn bytes(&self) -> usize {
        fn pair<T>(p: &(Vec<T>, Vec<T>)) -> usize {
            (p.0.capacity() + p.1.capacity()) * core::mem::size_of::<T>()
        }
        pair(&self.keys.k16)
            + pair(&self.keys.k32)
            + pair(&self.keys.k64)
            + pair(&self.oids)
            + self.runs.capacity() * core::mem::size_of::<Range<usize>>()
            + self.merge.bytes()
            + self.packed.capacity() * core::mem::size_of::<u64>()
            + self.packed_wide.capacity() * core::mem::size_of::<(u64, u32)>()
    }
}

/// Reusable working memory of the loser-tree multiway merge: the
/// tree's node arrays plus its run cursors.
///
/// Head keys are stored widened to `u64` (zero-extension is
/// order-preserving for unsigned codes), so one instance serves every
/// key bank.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// `(cursor, end)` per run of a merge.
    pub(crate) cursors: Vec<(usize, usize)>,
    /// The tree proper.
    pub(crate) nodes: TreeNodes,
    /// Matches played by every tree built over this scratch.
    pub(crate) counters: MergeCounters,
}

/// The loser tree's node arrays, one entry per (power-of-two padded) run
/// slot unless noted.
#[derive(Debug, Default)]
pub(crate) struct TreeNodes {
    /// Loser at each internal node; `tree[0]` is the overall winner.
    pub(crate) tree: Vec<u32>,
    /// Temporary winner array used by the full rebuild (`2 * m` entries).
    pub(crate) winner: Vec<u32>,
    /// `(first key word of the head, valid)`.
    pub(crate) heads: Vec<(u64, bool)>,
    /// Payload oid of each head.
    pub(crate) head_oids: Vec<u32>,
}

impl MergeScratch {
    /// An empty scratch; nothing is allocated until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The matches played by every merge over this scratch so far, each
    /// credited when its loser tree was dropped (drained or abandoned).
    pub fn counters(&self) -> MergeCounters {
        self.counters
    }

    /// Total bytes currently held.
    pub fn bytes(&self) -> usize {
        let n = &self.nodes;
        self.cursors.capacity() * core::mem::size_of::<(usize, usize)>()
            + (n.tree.capacity() + n.winner.capacity() + n.head_oids.capacity())
                * core::mem::size_of::<u32>()
            + n.heads.capacity() * core::mem::size_of::<(u64, bool)>()
    }
}

impl TreeNodes {
    /// Size the node arrays for `m` (power-of-two padded) run slots, every
    /// slot an exhausted run (whose oid is never read).
    pub(crate) fn prepare(&mut self, m: usize) {
        self.tree.resize(m, 0);
        self.winner.resize(2 * m, 0);
        self.heads.clear();
        self.heads.resize(m, (0, false));
        self.head_oids.resize(m, 0);
    }
}

/// Scratch for the parallel segmented sort: one [`SortScratch`] per
/// worker, plus what the workers share when they partition an oversized
/// group between them.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// One sort scratch per worker; the serial path uses the first.
    pub(crate) workers: Vec<SortScratch>,
    /// The buffer oversized groups are partitioned into: its first key
    /// buffer of the round's bank and its first oid buffer, grown to the
    /// round's length. Each worker's own buffers then only grow to the
    /// largest bucket it sorts.
    pub(crate) shared: SortScratch,
    /// Bucket counts of each worker range's share of a partitioned group.
    pub(crate) counts: Vec<[u32; BUCKETS]>,
}

impl WorkerScratch {
    /// An empty scratch; nothing is allocated until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently held across all workers and shared buffers.
    pub fn bytes(&self) -> usize {
        self.workers.iter().map(SortScratch::bytes).sum::<usize>()
            + self.shared.bytes()
            + self.counts.capacity() * core::mem::size_of::<[u32; BUCKETS]>()
    }

    /// Grow the serial path's radix scatter pair to `n` rows of `bank`,
    /// as the radix kernel does when it first sorts a group of `n` rows.
    /// A caller about to run many sorts of at most `n` rows sizes it once
    /// here: left to the kernel, a group slightly larger than the one
    /// before doubles it.
    pub fn reserve_radix(&mut self, bank: Bank, n: usize) {
        let s = self.serial();
        match bank {
            Bank::B16 => drop(s.radix_pair::<u16>(n)),
            Bank::B32 => drop(s.radix_pair::<u32>(n)),
            Bank::B64 => drop(s.radix_pair::<u64>(n)),
        }
    }

    /// The serial-path scratch (also worker 0 of the parallel path).
    pub(crate) fn serial(&mut self) -> &mut SortScratch {
        if self.workers.is_empty() {
            self.workers.push(SortScratch::new());
        }
        &mut self.workers[0]
    }

    /// Kernel time and merge matches credited to all workers so far.
    pub(crate) fn credited(&self) -> (PhaseTimes, MergeCounters) {
        let mut total = (PhaseTimes::default(), MergeCounters::default());
        for w in &self.workers {
            total.0.add(w.phases);
            total.1.add(w.merge.counters);
        }
        total
    }
}
