//! The reusable, bank-native execution arena.
//!
//! A multi-column sort needs a fixed family of working buffers: one
//! bank-native key vector per round (the massage destinations), a gather
//! spare per bank for the per-round lookup ping-pong, the oid
//! permutation, two group-offset vectors (current + refine destination),
//! and the SIMD merge-sort scratch. [`ExecArena`] owns all of them
//! between executions, so a warm caller — a session replaying a prepared
//! query — re-runs the whole round loop without touching the heap.
//!
//! Lifecycle: [`ExecArena::lease`] moves the buffers out into a
//! [`Lease`] sized for the plan at hand (growing them monotonically to
//! their high-water mark), the executor runs on the lease, and
//! [`ExecArena::restore`] moves everything back — on success *and* on
//! error. A mid-round failure (injected fault, worker panic) leaves
//! garbage in the buffers, which is harmless: every execution fully
//! overwrites what it reads, so the arena is never poisoned.
//!
//! Growth policy: buffers only ever grow (capacity is kept on shrink),
//! and [`ArenaStats`] tracks the byte high-water mark plus how many
//! executions grew the arena vs. ran entirely from existing capacity.

use mcs_simd_sort::{runs_serially, Bank, GroupBounds, SortKernel, WorkerScratch};

use crate::executor::ExecConfig;
use crate::massage::RoundKeys;
use crate::plan::MassagePlan;

/// Reuse counters of an [`ExecArena`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// High-water mark of bytes held across all buffers.
    pub bytes_peak: u64,
    /// Executions that grew the arena past its previous peak.
    pub grows: u64,
    /// Executions served entirely from existing capacity.
    pub reuses: u64,
}

impl ArenaStats {
    /// Whether any execution has been recorded.
    pub fn is_empty(&self) -> bool {
        *self == ArenaStats::default()
    }
}

/// Reusable execution memory for [`crate::multi_column_sort`].
///
/// One arena serves any sequence of sort instances (any row count, any
/// plan, any bank mix); buffers grow monotonically to the high-water
/// mark of what they have served. Not `Sync`: one arena per executing
/// thread (sessions keep a pool).
#[derive(Debug, Default)]
pub struct ExecArena {
    /// Pooled 16-bit-bank key buffers (round keys + gather spares).
    pool16: Vec<Vec<u16>>,
    /// Pooled 32-bit-bank key buffers.
    pool32: Vec<Vec<u32>>,
    /// Pooled 64-bit-bank key buffers.
    pool64: Vec<Vec<u64>>,
    /// Pooled u32 buffers (oids, group offsets).
    pool_u32: Vec<Vec<u32>>,
    /// The lease's list of round buffers, kept empty between leases.
    rounds: Vec<RoundKeys>,
    /// Merge-sort scratch: chunk spans plus per-worker key/oid/merge
    /// buffers (one worker when executing serially).
    workers: WorkerScratch,
    stats: ArenaStats,
    /// Counter state already surfaced to telemetry (deltas-since).
    reported: ArenaStats,
}

/// The buffer set of one execution, moved out of an [`ExecArena`] by
/// [`ExecArena::lease`] and moved back by [`ExecArena::restore`].
#[derive(Debug)]
pub(crate) struct Lease {
    /// Massage destinations: one bank-native key vector per round,
    /// zero-filled to the row count.
    pub rounds: Vec<RoundKeys>,
    /// Gather destination spares, one per bank (ping-ponged with the
    /// round buffer on every lookup).
    pub spare16: Vec<u16>,
    /// 32-bit gather spare.
    pub spare32: Vec<u32>,
    /// 64-bit gather spare.
    pub spare64: Vec<u64>,
    /// The oid permutation, initialized to `0..n`.
    pub oids: Vec<u32>,
    /// Current group bounds, initialized to one whole-relation group.
    pub groups: GroupBounds,
    /// Refinement destination, swapped with `groups.offsets` per round.
    pub spare_offsets: Vec<u32>,
    /// Merge-sort scratch.
    pub workers: WorkerScratch,
}

fn take_pooled<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    pool.pop().unwrap_or_default()
}

impl ExecArena {
    /// An empty arena; nothing is allocated until the first lease.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reuse counters (peak bytes, grow/reuse execution counts).
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Bytes currently held across every pooled buffer and scratch.
    pub fn bytes(&self) -> usize {
        fn pool_bytes<T>(pool: &[Vec<T>]) -> usize {
            pool.iter()
                .map(|v| v.capacity() * core::mem::size_of::<T>())
                .sum()
        }
        pool_bytes(&self.pool16)
            + pool_bytes(&self.pool32)
            + pool_bytes(&self.pool64)
            + pool_bytes(&self.pool_u32)
            + self.workers.bytes()
    }

    /// Move the execution buffers out, sized for `plan` over `n` rows.
    ///
    /// Round-key buffers come back zero-filled (massage ORs bits in);
    /// gather spares, oids and offsets are sized by their users. All
    /// growth happens here, before the round loop runs.
    pub(crate) fn lease(&mut self, plan: &MassagePlan, n: usize) -> Lease {
        let mut lease = Lease {
            rounds: core::mem::take(&mut self.rounds),
            spare16: take_pooled(&mut self.pool16),
            spare32: take_pooled(&mut self.pool32),
            spare64: take_pooled(&mut self.pool64),
            oids: take_pooled(&mut self.pool_u32),
            groups: GroupBounds {
                offsets: take_pooled(&mut self.pool_u32),
            },
            spare_offsets: take_pooled(&mut self.pool_u32),
            workers: core::mem::take(&mut self.workers),
        };
        lease.rounds.reserve(plan.rounds.len());
        for round in &plan.rounds {
            lease.rounds.push(match round.bank {
                Bank::B16 => RoundKeys::B16(zero_filled(take_pooled(&mut self.pool16), n)),
                Bank::B32 => RoundKeys::B32(zero_filled(take_pooled(&mut self.pool32), n)),
                Bank::B64 => RoundKeys::B64(zero_filled(take_pooled(&mut self.pool64), n)),
            });
        }
        // Pre-size the lookup spares for the banks that will gather
        // (rounds after the first) and the refine destinations, so the
        // round loop itself never grows anything. Spares come back full
        // from the ping-pong and `reserve` counts from len: clear first.
        lease.spare16.clear();
        lease.spare32.clear();
        lease.spare64.clear();
        for round in plan.rounds.iter().skip(1) {
            match round.bank {
                Bank::B16 => lease.spare16.reserve(n),
                Bank::B32 => lease.spare32.reserve(n),
                Bank::B64 => lease.spare64.reserve(n),
            }
        }
        // All three u32 buffers get the same n+1 reservation: they come
        // from one pool and swap roles across executions (oids vs group
        // offsets), and a uniform capacity keeps that rotation growth-free.
        // Clear before reserving — `reserve` counts from the current len,
        // and pooled buffers come back full.
        lease.oids.clear();
        lease.oids.reserve(n + 1);
        lease.oids.extend(0..n as u32);
        lease.groups.offsets.clear();
        lease.groups.offsets.reserve(n + 1);
        lease.groups.offsets.push(0);
        lease.groups.offsets.push(n as u32);
        lease.spare_offsets.clear();
        lease.spare_offsets.reserve(n + 1);
        lease
    }

    /// Grow the buffers a sort of `plan` over `n` rows under `cfg` takes,
    /// without running one. A caller about to run many sorts of at most
    /// `n` rows (the buckets of a budgeted sort) sizes the arena once:
    /// left to `Vec`'s amortized doubling, a sort slightly larger than the
    /// one before could leave the arena holding twice what `n` rows need.
    /// Besides the lease buffers, that covers the serial radix kernel's
    /// scatter pair, which round 1 fills with all `n` rows.
    pub(crate) fn reserve(&mut self, plan: &MassagePlan, n: usize, cfg: &ExecConfig) {
        let mut lease = self.lease(plan, n);
        if let (SortKernel::Auto, true, Some(first)) = (
            cfg.sort.kernel,
            runs_serially(cfg.threads, n),
            plan.rounds.first(),
        ) {
            lease.workers.reserve_radix(first.bank, n);
        }
        self.restore(lease);
    }

    /// Move a lease's buffers back and account the execution.
    ///
    /// Safe after a failed execution too: contents are garbage but every
    /// later lease overwrites what it reads.
    pub(crate) fn restore(&mut self, mut lease: Lease) {
        for keys in lease.rounds.drain(..) {
            match keys {
                RoundKeys::B16(v) => self.pool16.push(v),
                RoundKeys::B32(v) => self.pool32.push(v),
                RoundKeys::B64(v) => self.pool64.push(v),
            }
        }
        self.pool16.push(lease.spare16);
        self.pool32.push(lease.spare32);
        self.pool64.push(lease.spare64);
        self.pool_u32.push(lease.oids);
        self.pool_u32.push(lease.groups.offsets);
        self.pool_u32.push(lease.spare_offsets);
        self.workers = lease.workers;
        self.rounds = lease.rounds;

        let bytes = self.bytes() as u64;
        if bytes > self.stats.bytes_peak {
            self.stats.bytes_peak = bytes;
            self.stats.grows += 1;
        } else {
            self.stats.reuses += 1;
        }
    }

    /// Counter deltas since the last call (for monotone telemetry
    /// counters): `(grows, reuses, bytes_peak_growth)`.
    pub(crate) fn take_counter_deltas(&mut self) -> (u64, u64, u64) {
        let d = (
            self.stats.grows - self.reported.grows,
            self.stats.reuses - self.reported.reuses,
            self.stats.bytes_peak - self.reported.bytes_peak,
        );
        self.reported = self.stats;
        d
    }
}

fn zero_filled<T: Copy + Default>(mut v: Vec<T>, n: usize) -> Vec<T> {
    v.clear();
    v.resize(n, T::default());
    v
}

/// Estimated resident bytes of executing `plan` over `n` rows in memory
/// under `cfg`: what the [`ExecArena`]'s internal lease sizes (round-key
/// buffers, gather spares, the three u32 oid/offset buffers) plus the
/// segmented sort's scratch, in key/oid buffer pairs of the plan's widest
/// bank that `cfg`'s kernel and thread count can grow to `n` rows. Linear
/// and monotone in `n`, so the budgeted path can both test a budget
/// (`footprint(n) > budget`?) and invert it into a bucket row count.
/// An estimate, not an exact high-water mark: that it bounds the peak
/// for both kernels, serial and parallel, is asserted by
/// `tests/memory_budget.rs`.
pub fn lease_footprint_bytes(plan: &MassagePlan, n: usize, cfg: &ExecConfig) -> usize {
    let bank_bytes = |b: Bank| b.bits() as usize / 8;
    let mut total = 0usize;
    let mut widest = 0usize;
    for round in &plan.rounds {
        total += n * bank_bytes(round.bank);
        widest = widest.max(bank_bytes(round.bank));
    }
    // Gather spares: one per distinct bank appearing after round 1.
    let mut spare = [false; 3];
    for round in plan.rounds.iter().skip(1) {
        let i = match round.bank {
            Bank::B16 => 0,
            Bank::B32 => 1,
            Bank::B64 => 2,
        };
        spare[i] = true;
    }
    for (i, used) in spare.iter().enumerate() {
        if *used {
            total += n * [2usize, 4, 8][i];
        }
    }
    // oids + group offsets + spare offsets.
    total += 3 * (n + 1) * core::mem::size_of::<u32>();
    // Sort scratch. The merge-sort ping-pongs between two pairs, each
    // worker's padded to whole in-register blocks. The radix kernel
    // scatters into one pair; at threads > 1 it also partitions an
    // oversized group into the shared pair, and the workers then sort
    // disjoint rows, so their own pairs add up to one pair of `n` rows.
    let (pairs, pad) = match cfg.sort.kernel {
        SortKernel::MergeSort => (2, cfg.threads.max(1) * MERGE_BLOCK_ROWS),
        SortKernel::Auto if cfg.threads > 1 => (2, 0),
        SortKernel::Auto => (1, 0),
    };
    total += pairs * (n + pad) * (widest + core::mem::size_of::<u32>());
    total
}

/// The merge-sort's largest in-register block, in rows (16 lanes × 16
/// registers in the 16-bit bank); it pads its input to a whole number of
/// blocks.
const MERGE_BLOCK_ROWS: usize = 256;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn lease_restore_roundtrip_keeps_capacity() {
        let mut arena = ExecArena::new();
        let plan = MassagePlan::from_widths(&[10, 20, 40]);
        let lease = arena.lease(&plan, 1000);
        assert_eq!(lease.rounds.len(), 3);
        assert_eq!(lease.oids.len(), 1000);
        assert!(matches!(lease.rounds[0], RoundKeys::B16(_)));
        assert!(matches!(lease.rounds[1], RoundKeys::B32(_)));
        assert!(matches!(lease.rounds[2], RoundKeys::B64(_)));
        arena.restore(lease);
        let stats = arena.stats();
        assert_eq!(stats.grows, 1);
        assert_eq!(stats.reuses, 0);
        assert!(stats.bytes_peak > 0);

        // Same shape again: pure reuse, no growth.
        let lease = arena.lease(&plan, 1000);
        arena.restore(lease);
        let stats = arena.stats();
        assert_eq!(stats.grows, 1);
        assert_eq!(stats.reuses, 1);

        // A smaller instance also reuses (capacity kept on shrink).
        let lease = arena.lease(&MassagePlan::from_widths(&[12]), 10);
        arena.restore(lease);
        assert_eq!(arena.stats().reuses, 2);
    }

    #[test]
    fn counter_deltas_are_monotone_and_reset() {
        let mut arena = ExecArena::new();
        let plan = MassagePlan::from_widths(&[30]);
        for _ in 0..3 {
            let lease = arena.lease(&plan, 100);
            arena.restore(lease);
        }
        let (grows, reuses, peak) = arena.take_counter_deltas();
        assert_eq!(grows, 1);
        assert_eq!(reuses, 2);
        assert!(peak > 0);
        let (grows, reuses, peak) = arena.take_counter_deltas();
        assert_eq!((grows, reuses, peak), (0, 0, 0));
    }
}
