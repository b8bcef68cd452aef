//! Out-of-cache `F`-way merging with a loser tree (phase (c) of Eq. 5).
//!
//! Once runs exceed half the L2 cache, binary merging would re-stream the
//! whole dataset `log2(R)` more times. A merge tree with fan-out `F`
//! reduces that to `⌈log_F(R)⌉` passes (Eq. 8 in the paper). Each pass
//! merges groups of up to `F` adjacent runs with a classic loser tree.
//!
//! There is one tree, private to [`multiway_merge`] / [`multiway_pass`],
//! over index ranges of in-memory `(keys, oids)` slices. Its node arrays
//! live in a caller-provided [`MergeScratch`] so repeated passes (and
//! repeated sorts) reuse the same memory.
//!
//! Every match compares the two heads' keys, which the tree holds
//! widened to `u64` in its node arrays. The tree carries no
//! offset-value codes: a code over that same key cannot decide a match
//! the word compare does not (DESIGN.md §12).

use crate::key::Key;
use crate::scratch::{MergeScratch, TreeNodes};
use core::ops::Range;
use mcs_cancel::{CancelToken, CHECK_INTERVAL};

/// Comparison counters of multiway merging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounters {
    /// Loser-tree matches played between two live runs.
    pub comparisons: u64,
    /// Always 0: the tree carries no offset-value codes, so no match is
    /// decided by one. Kept so that readers of the counters still build.
    pub ovc_hits: u64,
}

impl MergeCounters {
    /// Element-wise sum (used when merging per-thread stats).
    pub fn add(&mut self, other: MergeCounters) {
        self.comparisons += other.comparisons;
    }

    /// Element-wise difference from an `earlier` reading of the same
    /// (only growing) counters: what was credited in between.
    pub(crate) fn since(self, earlier: MergeCounters) -> MergeCounters {
        MergeCounters {
            comparisons: self.comparisons - earlier.comparisons,
            ovc_hits: 0,
        }
    }
}

/// A loser tree over index ranges of `(keys, oids)` slices, read through
/// per-run cursors.
///
/// Exhausted runs are represented by an explicit `valid = false` flag
/// rather than a sentinel key, so `K::MAX` remains a legal key value.
/// Head keys are held widened to `u64` in the scratch (order-preserving
/// for unsigned codes), which lets one scratch serve every bank.
///
/// Dropping the tree — drained or abandoned on cancellation — credits
/// the matches it played to the counters of the [`MergeScratch`] it
/// borrows ([`MergeScratch::counters`]), exactly once.
struct LoserTree<'a, K> {
    keys: &'a [K],
    oids: &'a [u32],
    /// `(cursor, end)` per run.
    cursors: &'a mut [(usize, usize)],
    // The scratch's node arrays, borrowed as slices: reaching them through
    // the scratch on every access cost 5-8 % of a 16-run merge.
    /// Loser at each internal node; `tree[0]` is the overall winner.
    tree: &'a mut [u32],
    /// Temporary winner array used by the full rebuild.
    winner: &'a mut [u32],
    /// `(key, valid)` and payload oid of each run's head.
    heads: &'a mut [(u64, bool)],
    head_oids: &'a mut [u32],
    /// Number of leaves (padded to a power of two).
    m: usize,
    /// Matches played so far, credited to `counters` on drop.
    played: MergeCounters,
    /// The scratch's counters.
    counters: &'a mut MergeCounters,
}

impl<'a, K: Key> LoserTree<'a, K> {
    /// Build the tree over the runs of `cursors`, pulling each run's head.
    fn new(
        keys: &'a [K],
        oids: &'a [u32],
        cursors: &'a mut [(usize, usize)],
        n: &'a mut TreeNodes,
        counters: &'a mut MergeCounters,
    ) -> Self {
        let num_runs = cursors.len();
        let m = num_runs.next_power_of_two().max(2);
        n.prepare(m);
        let mut lt = LoserTree {
            keys,
            oids,
            cursors,
            tree: &mut n.tree,
            winner: &mut n.winner,
            heads: &mut n.heads,
            head_oids: &mut n.head_oids,
            m,
            played: MergeCounters::default(),
            counters,
        };
        for run in 0..num_runs {
            lt.refill(run);
        }
        lt.rebuild();
        lt
    }

    /// Advance run `run` to its next element (or mark it exhausted).
    // Forced inline (with `beats`): left to the inliner, the merge ran
    // 10 % slower.
    #[inline(always)]
    fn refill(&mut self, run: usize) {
        let (cur, end) = self.cursors[run];
        if cur == end {
            self.heads[run] = (0, false);
            return;
        }
        self.cursors[run].0 = cur + 1;
        self.heads[run] = (self.keys[cur].to_u64(), true);
        self.head_oids[run] = self.oids[cur];
    }

    /// `a` beats `b` if it has a head and it is strictly smaller, or equal
    /// with a lower run index.
    ///
    /// The lower-run-index tie-break is a documented invariant, not a
    /// convenience: callers pass runs in buffer order, so it makes the
    /// merge stable by run (equal keys drain in run order — see the
    /// `merge_is_stable_by_run_order` regression test). Do not weaken it
    /// to an arbitrary choice.
    #[inline(always)]
    fn beats(&mut self, a: u32, b: u32) -> bool {
        match (self.heads[a as usize], self.heads[b as usize]) {
            ((wa, true), (wb, true)) => {
                self.played.comparisons += 1;
                wa < wb || (wa == wb && a < b)
            }
            ((_, true), (_, false)) => true,
            ((_, false), _) => false,
        }
    }

    /// Full rebuild: play all matches bottom-up.
    fn rebuild(&mut self) {
        let m = self.m;
        for i in 0..m {
            self.winner[m + i] = i as u32;
        }
        for i in (1..m).rev() {
            let (a, b) = (self.winner[2 * i], self.winner[2 * i + 1]);
            let (w, l) = if self.beats(a, b) { (a, b) } else { (b, a) };
            self.winner[i] = w;
            self.tree[i] = l;
        }
        self.tree[0] = self.winner[1];
    }

    /// Pop the smallest element as `(key, oid)`, or `None` when every run
    /// has drained.
    #[inline]
    fn pop(&mut self) -> Option<(u64, u32)> {
        let w = self.tree[0] as usize;
        let (key, valid) = self.heads[w];
        if !valid {
            return None;
        }
        let oid = self.head_oids[w];
        self.refill(w);
        // Replay matches from leaf w to the root.
        let mut winner = w as u32;
        let mut node = (self.m + w) >> 1;
        while node >= 1 {
            let other = self.tree[node];
            if self.beats(other, winner) {
                self.tree[node] = winner;
                winner = other;
            }
            node >>= 1;
        }
        self.tree[0] = winner;
        Some((key, oid))
    }
}

impl<K> Drop for LoserTree<'_, K> {
    fn drop(&mut self) {
        self.counters.add(self.played);
    }
}

/// Merge `runs` (disjoint, individually sorted index ranges of the `src`
/// `(keys, oids)` slices) into the `dst` slices starting at `dst_at`.
///
/// `cancel` is polled every [`CHECK_INTERVAL`] pops. A fired token stops
/// the merge mid-stream, leaving the tail of the destination range
/// unwritten — the caller must observe the token and discard the buffer.
/// Comparison counters are credited either way.
pub fn multiway_merge<K: Key>(
    src: (&[K], &[u32]),
    dst: (&mut [K], &mut [u32]),
    runs: &[Range<usize>],
    dst_at: usize,
    scratch: &mut MergeScratch,
    cancel: &CancelToken,
) {
    debug_assert!(!runs.is_empty());
    let (keys, oids) = src;
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let window = dst_at..dst_at + total;
    let dk = &mut dst.0[window.clone()];
    let dov = &mut dst.1[window];
    if let [r] = runs {
        dk.copy_from_slice(&keys[r.clone()]);
        dov.copy_from_slice(&oids[r.clone()]);
        return;
    }
    let MergeScratch {
        cursors,
        nodes,
        counters,
    } = scratch;
    cursors.clear();
    cursors.extend(runs.iter().map(|r| (r.start, r.end)));
    let mut lt = LoserTree::new(keys, oids, cursors, nodes, counters);
    for i in 0..total {
        if i % CHECK_INTERVAL == 0 && cancel.check().is_err() {
            return;
        }
        let (key, oid) = lt.pop().expect("loser tree drained early");
        dk[i] = K::from_u64(key);
        dov[i] = oid;
    }
    debug_assert!(lt.pop().is_none());
}

/// One `F`-way pass over the whole buffer: merges consecutive groups of
/// up to `fanout` runs of length `run` from `src` into `dst` (bundled as
/// for [`multiway_merge`]). Returns the new run length (`run * fanout`).
///
/// `cancel` is polled between merge groups and, through the merge, every
/// [`CHECK_INTERVAL`] pops inside each group. A fired token abandons the
/// rest of the pass; the caller must observe the token and discard the
/// destination buffer. The nominal new run length is returned either way.
pub fn multiway_pass<K: Key>(
    src: (&[K], &[u32]),
    dst: (&mut [K], &mut [u32]),
    run: usize,
    fanout: usize,
    runs_buf: &mut Vec<Range<usize>>,
    scratch: &mut MergeScratch,
    cancel: &CancelToken,
) -> usize {
    let n = src.0.len();
    debug_assert!(fanout >= 2);
    let (dk, dov) = dst;
    let group = run * fanout;
    let mut start = 0usize;
    while start < n {
        if cancel.check().is_err() {
            return group;
        }
        let end = (start + group).min(n);
        runs_buf.clear();
        runs_buf.extend((start..end).step_by(run).map(|s| s..(s + run).min(end)));
        multiway_merge(src, (&mut *dk, &mut *dov), runs_buf, start, scratch, cancel);
        start = end;
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merge through a fresh scratch; returns the matches the merge
    /// credited to it.
    fn merge<K: Key>(
        k: &[K],
        o: &[u32],
        dk: &mut [K],
        dlo: &mut [u32],
        runs: &[Range<usize>],
    ) -> MergeCounters {
        let mut scratch = MergeScratch::new();
        multiway_merge(
            (k, o),
            (dk, dlo),
            runs,
            0,
            &mut scratch,
            &CancelToken::none(),
        );
        scratch.counters()
    }

    /// One pass through a fresh scratch.
    fn pass<K: Key>(
        k: &[K],
        o: &[u32],
        dk: &mut [K],
        dlo: &mut [u32],
        run: usize,
        f: usize,
    ) -> usize {
        let (mut runs, mut scratch) = (Vec::new(), MergeScratch::new());
        let none = CancelToken::none();
        multiway_pass((k, o), (dk, dlo), run, f, &mut runs, &mut scratch, &none)
    }

    #[test]
    fn merges_three_runs() {
        let k: Vec<u32> = vec![1, 4, 7, 2, 5, 8, 0, 3, 6];
        let o: Vec<u32> = (0..9).collect();
        let mut dk = vec![0u32; 9];
        let mut dlo = vec![0u32; 9];
        merge(&k, &o, &mut dk, &mut dlo, &[0..3, 3..6, 6..9]);
        assert_eq!(dk, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // oid i still points at key k[i].
        for i in 0..9 {
            assert_eq!(dk[i], k[dlo[i] as usize]);
        }
    }

    #[test]
    fn handles_empty_and_unequal_runs() {
        let k: Vec<u16> = vec![5, 6, 1];
        let o: Vec<u32> = vec![0, 1, 2];
        let mut dk = vec![0u16; 3];
        let mut dlo = vec![0u32; 3];
        merge(&k, &o, &mut dk, &mut dlo, &[0..2, 2..2, 2..3]);
        assert_eq!(dk, vec![1, 5, 6]);
    }

    #[test]
    fn max_key_is_not_a_sentinel() {
        let k: Vec<u16> = vec![u16::MAX, u16::MAX, 3];
        let o: Vec<u32> = vec![10, 11, 12];
        let mut dk = vec![0u16; 3];
        let mut dlo = vec![0u32; 3];
        merge(&k, &o, &mut dk, &mut dlo, &[0..2, 2..3]);
        assert_eq!(dk, vec![3, u16::MAX, u16::MAX]);
        assert_eq!(dlo[0], 12);
        let mut tail = [dlo[1], dlo[2]];
        tail.sort_unstable();
        assert_eq!(tail, [10, 11]);
    }

    #[test]
    fn full_pass_with_fanout() {
        // 4 runs of 4, fanout 2 -> 2 runs of 8 after one pass.
        let mut k: Vec<u64> = Vec::new();
        for r in 0..4u64 {
            k.extend((0..4).map(|i| i * 4 + r));
        }
        let o: Vec<u32> = (0..16).collect();
        let mut dk = vec![0u64; 16];
        let mut dlo = vec![0u32; 16];
        let new_run = pass(&k, &o, &mut dk, &mut dlo, 4, 2);
        assert_eq!(new_run, 8);
        assert!(dk[0..8].windows(2).all(|w| w[0] <= w[1]));
        assert!(dk[8..16].windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ties_across_runs_keep_all_payloads() {
        let k: Vec<u32> = vec![7, 7, 7, 7, 7, 7];
        let o: Vec<u32> = (0..6).collect();
        let mut dk = vec![0u32; 6];
        let mut dlo = vec![0u32; 6];
        merge(&k, &o, &mut dk, &mut dlo, &[0..2, 2..4, 4..6]);
        let mut got = dlo.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn counters_are_credited_once_on_every_exit_path() {
        // One scratch throughout: each step checks what it added to the
        // scratch's counters.
        let mut scratch = MergeScratch::new();
        let mut seen = MergeCounters::default();
        let mut credited = |scratch: &MergeScratch| {
            let c = scratch.counters().since(seen);
            seen = scratch.counters();
            c
        };

        // Drained: 4 interleaved runs of 50, every pop credited once.
        let k: Vec<u32> = (0..4u32)
            .flat_map(|r| (0..50u32).map(move |i| i * 7 + r))
            .collect();
        let o: Vec<u32> = (0..200).collect();
        let (mut dk, mut dlo) = (vec![0u32; 200], vec![0u32; 200]);
        let runs = [0..50, 50..100, 100..150, 150..200];
        let none = CancelToken::none();
        multiway_merge((&k, &o), (&mut dk, &mut dlo), &runs, 0, &mut scratch, &none);
        assert!(dk.windows(2).all(|w| w[0] <= w[1]));
        let drained = credited(&scratch);
        assert!(drained.comparisons >= 200 - 4);
        assert_eq!(drained.ovc_hits, 0);
        assert_eq!(credited(&scratch), MergeCounters::default());

        // A slice merge whose token has fired: the tree is abandoned
        // before its first pop, and its rebuild is credited, once.
        let k: Vec<u32> = vec![1, 4, 2, 5];
        let o: Vec<u32> = (0..4).collect();
        let (mut dk, mut dlo) = (vec![0u32; 4], vec![0u32; 4]);
        let token = CancelToken::new();
        token.cancel();
        let (src, dst) = ((&k[..], &o[..]), (&mut dk[..], &mut dlo[..]));
        multiway_merge(src, dst, &[0..2, 2..4], 0, &mut scratch, &token);
        assert_eq!(credited(&scratch).comparisons, 1);
        assert_eq!(credited(&scratch), MergeCounters::default());
    }

    #[test]
    fn scratch_reuse_across_merges_is_clean() {
        // A big merge followed by a smaller one through the same scratch:
        // stale node state from the first must not leak into the second.
        let mut scratch = MergeScratch::new();
        let none = CancelToken::none();
        let k: Vec<u32> = vec![1, 4, 7, 2, 5, 8, 0, 3, 6, 9];
        let o: Vec<u32> = (0..10).collect();
        let mut dk = vec![0u32; 10];
        let mut dlo = vec![0u32; 10];
        let runs = [0..3, 3..6, 6..8, 8..10];
        multiway_merge((&k, &o), (&mut dk, &mut dlo), &runs, 0, &mut scratch, &none);
        assert_eq!(dk, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);

        let k2: Vec<u32> = vec![9, 1];
        let o2: Vec<u32> = vec![0, 1];
        let mut dk2 = vec![0u32; 2];
        let mut dlo2 = vec![0u32; 2];
        let runs = [0..1, 1..2];
        multiway_merge(
            (&k2, &o2),
            (&mut dk2, &mut dlo2),
            &runs,
            0,
            &mut scratch,
            &none,
        );
        assert_eq!(dk2, vec![1, 9]);
        assert_eq!(dlo2, vec![1, 0]);
    }
}
