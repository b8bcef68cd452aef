//! Out-of-cache `F`-way merging with a loser tree (phase (c) of Eq. 5).
//!
//! Once runs exceed half the L2 cache, binary merging would re-stream the
//! whole dataset `log2(R)` more times. A merge tree with fan-out `F`
//! reduces that to `⌈log_F(R)⌉` passes (Eq. 8 in the paper). Each pass
//! merges groups of up to `F` adjacent runs with a classic loser tree.
//!
//! There is one tree, [`LoserTree`], generic over where its run heads
//! come from ([`MergeSource`]): index ranges of in-memory slices
//! ([`multiway_merge`] / [`multiway_pass`]) or spilled run files
//! (`mcs-extsort`). Its node arrays live in a caller-provided
//! [`MergeScratch`] so repeated passes (and repeated sorts) reuse the
//! same memory.
//!
//! Every match compares the two heads' most significant 64-bit words,
//! which the tree holds in its node arrays; only heads that tie on that
//! word reach the source's [`MergeSource::cmp_tails`]. The tree carries
//! no offset-value codes: a code over that same word cannot decide a
//! match the word compare does not (DESIGN.md §12).

use crate::key::Key;
use crate::scratch::{MergeScratch, TreeNodes};
use core::cmp::Ordering;
use core::convert::Infallible;
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

/// One element delivered by a [`MergeSource`]: the most significant
/// 64-bit word of its (possibly multi-word) sort key and the payload oid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeHead {
    /// Most significant `u64` word of the element's sort key.
    pub word0: u64,
    /// Payload object id.
    pub oid: u32,
}

/// A supplier of sorted runs for the [`LoserTree`]: index ranges of
/// in-memory slices, or e.g. spilled run files behind bounded read-ahead
/// buffers.
///
/// Keys may be wider than 64 bits: the tree only sees each head's most
/// significant word; whenever two heads tie on it, the tree asks the
/// source to compare the rest of the keys via [`MergeSource::cmp_tails`].
/// Such a source must keep each run's current head resident until the
/// next [`MergeSource::next`] call for that run.
pub trait MergeSource {
    /// The error [`MergeSource::next`] can fail with, surfaced through
    /// [`LoserTree::pop`]; [`Infallible`] for in-memory sources.
    type Error;

    /// Advance run `run` to its next element and return it, or `None`
    /// when the run is exhausted. Elements must come back in
    /// non-decreasing key order.
    fn next(&mut self, run: usize) -> Result<Option<MergeHead>, Self::Error>;

    /// Compare what the current heads of runs `a` and `b` hold beyond
    /// their first word. Only called while both runs have a live head
    /// with equal first words. Single-word sources keep the default.
    #[inline]
    fn cmp_tails(&self, _a: usize, _b: usize) -> Ordering {
        Ordering::Equal
    }
}

/// A loser tree over the runs of a [`MergeSource`].
///
/// Exhausted runs are represented by an explicit `valid = false` flag
/// rather than a sentinel key, so `K::MAX` remains a legal key value.
/// Head keys are held widened to `u64` in the scratch (order-preserving
/// for unsigned codes), which lets one scratch serve every bank.
///
/// Dropping the tree — drained, abandoned on cancellation, or unwound by
/// a source error — credits the matches it played to the counters of the
/// [`MergeScratch`] it borrows ([`MergeScratch::counters`]), exactly once.
pub struct LoserTree<'a, S: MergeSource> {
    src: S,
    // The scratch's node arrays, borrowed as slices: reaching them through
    // the scratch on every access cost 5-8 % of a 16-run merge.
    /// Loser at each internal node; `tree[0]` is the overall winner.
    tree: &'a mut [u32],
    /// Temporary winner array used by the full rebuild.
    winner: &'a mut [u32],
    /// `(first key word, valid)` and payload oid of each run's head.
    heads: &'a mut [(u64, bool)],
    head_oids: &'a mut [u32],
    /// Number of leaves (padded to a power of two).
    m: usize,
    /// Matches played so far, credited to `counters` on drop.
    played: MergeCounters,
    /// The scratch's counters.
    counters: &'a mut MergeCounters,
}

impl<'a, S: MergeSource> LoserTree<'a, S> {
    /// Build the tree over `num_runs` runs, pulling each run's head from
    /// the source.
    pub fn new(src: S, num_runs: usize, scratch: &'a mut MergeScratch) -> Result<Self, S::Error> {
        Self::over(src, num_runs, &mut scratch.nodes, &mut scratch.counters)
    }

    fn over(
        src: S,
        num_runs: usize,
        n: &'a mut TreeNodes,
        counters: &'a mut MergeCounters,
    ) -> Result<Self, S::Error> {
        let m = num_runs.next_power_of_two().max(2);
        n.prepare(m);
        let mut lt = LoserTree {
            src,
            tree: &mut n.tree,
            winner: &mut n.winner,
            heads: &mut n.heads,
            head_oids: &mut n.head_oids,
            m,
            played: MergeCounters::default(),
            counters,
        };
        for run in 0..num_runs {
            let head = lt.src.next(run)?;
            lt.set_head(run, head);
        }
        lt.rebuild();
        Ok(lt)
    }

    /// Immutable view of the underlying source — e.g. to inspect the
    /// element a [`LoserTree::pop`] just surrendered, which sources
    /// typically retain until that run's next refill.
    pub fn source(&self) -> &S {
        &self.src
    }

    #[inline(always)]
    fn set_head(&mut self, run: usize, head: Option<MergeHead>) {
        let h = head.unwrap_or_default();
        self.heads[run] = (h.word0, head.is_some());
        self.head_oids[run] = h.oid;
    }

    /// `a` beats `b` if it has a head and it is strictly smaller, or equal
    /// with a lower run index.
    ///
    /// The lower-run-index tie-break is a documented invariant, not a
    /// convenience: callers pass runs in buffer order, so it makes the
    /// merge stable by run (equal keys drain in run order — see the
    /// `merge_is_stable_by_run_order` regression test). The spill merge's
    /// byte-identity with the in-memory sort rests on it. Do not weaken
    /// it to an arbitrary choice.
    // Forced inline (with `set_head` and the slice source's `next`): left
    // to the inliner, the merge ran 10 % slower.
    #[inline(always)]
    fn beats(&mut self, a: u32, b: u32) -> bool {
        match (self.heads[a as usize], self.heads[b as usize]) {
            ((wa, true), (wb, true)) => {
                self.played.comparisons += 1;
                wa < wb
                    || (wa == wb
                        && match self.src.cmp_tails(a as usize, b as usize) {
                            Ordering::Less => true,
                            Ordering::Greater => false,
                            Ordering::Equal => a < b,
                        })
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

    /// Pop the smallest element as `(run, head)`. Returns `Ok(None)` when
    /// every run has drained.
    #[inline]
    pub fn pop(&mut self) -> Result<Option<(usize, MergeHead)>, S::Error> {
        let w = self.tree[0] as usize;
        let (word0, valid) = self.heads[w];
        if !valid {
            return Ok(None);
        }
        let out = MergeHead {
            word0,
            oid: self.head_oids[w],
        };
        let head = self.src.next(w)?;
        self.set_head(w, head);
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
        Ok(Some((w, out)))
    }
}

impl<S: MergeSource> Drop for LoserTree<'_, S> {
    fn drop(&mut self) {
        self.counters.add(self.played);
    }
}

/// Index ranges of `(keys, oids)` slices as merge runs, read through
/// per-run cursors.
struct SliceRuns<'a, K> {
    keys: &'a [K],
    oids: &'a [u32],
    /// `(cursor, end)` per run.
    cursors: &'a mut [(usize, usize)],
}

impl<K: Key> MergeSource for SliceRuns<'_, K> {
    type Error = Infallible;

    #[inline(always)]
    fn next(&mut self, run: usize) -> Result<Option<MergeHead>, Infallible> {
        let (cur, end) = self.cursors[run];
        if cur == end {
            return Ok(None);
        }
        self.cursors[run].0 = cur + 1;
        Ok(Some(MergeHead {
            word0: self.keys[cur].to_u64(),
            oid: self.oids[cur],
        }))
    }
}

fn infallible<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => match e {},
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
    let src = SliceRuns {
        keys,
        oids,
        cursors,
    };
    let mut lt = infallible(LoserTree::over(src, runs.len(), nodes, counters));
    for i in 0..total {
        if i % CHECK_INTERVAL == 0 && cancel.check().is_err() {
            return;
        }
        let (_, h) = infallible(lt.pop()).expect("loser tree drained early");
        dk[i] = K::from_u64(h.word0);
        dov[i] = h.oid;
    }
    debug_assert!(infallible(lt.pop()).is_none());
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

    /// In-memory [`MergeSource`] over multi-word keys, for tests: each
    /// run is a sorted `Vec` of `(key words, oid)`.
    struct VecSource {
        runs: Vec<Vec<(Vec<u64>, u32)>>,
        pos: Vec<usize>,
    }

    impl VecSource {
        fn new(runs: Vec<Vec<(Vec<u64>, u32)>>) -> Self {
            let pos = vec![0; runs.len()];
            VecSource { runs, pos }
        }
    }

    impl MergeSource for VecSource {
        type Error = ();

        fn next(&mut self, run: usize) -> Result<Option<MergeHead>, ()> {
            let i = self.pos[run];
            let Some((words, oid)) = self.runs[run].get(i) else {
                return Ok(None);
            };
            self.pos[run] += 1;
            Ok(Some(MergeHead {
                word0: words[0],
                oid: *oid,
            }))
        }

        fn cmp_tails(&self, a: usize, b: usize) -> Ordering {
            // The live head of a run is the element `next` returned last.
            let ha = &self.runs[a][self.pos[a] - 1].0;
            let hb = &self.runs[b][self.pos[b] - 1].0;
            ha[1..].cmp(&hb[1..])
        }
    }

    #[test]
    fn streamed_source_matches_slice_merge_byte_for_byte() {
        // Single-word keys: the tree over a streaming source must
        // reproduce the slice merge's output exactly, including duplicate
        // payload order (the lower-run-index tie-break).
        let mut state = 0xC0FF_EE00u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &count in &[1usize, 2, 5, 9] {
            let mut keys: Vec<u64> = Vec::new();
            let mut runs: Vec<Range<usize>> = Vec::new();
            let mut vruns: Vec<Vec<(Vec<u64>, u32)>> = Vec::new();
            for _ in 0..count {
                let len = (next() % 80) as usize;
                let start = keys.len();
                let mut run: Vec<u64> = (0..len).map(|_| next() % 64).collect();
                run.sort_unstable();
                vruns.push(
                    run.iter()
                        .enumerate()
                        .map(|(i, &k)| (vec![k], (start + i) as u32))
                        .collect(),
                );
                keys.extend_from_slice(&run);
                runs.push(start..keys.len());
            }
            let n = keys.len();
            let oids: Vec<u32> = (0..n as u32).collect();
            let (mut dk, mut dlo) = (vec![0u64; n], vec![0u32; n]);
            if n > 0 {
                merge(&keys, &oids, &mut dk, &mut dlo, &runs);
            }

            let mut scratch = MergeScratch::new();
            let mut lt = LoserTree::new(VecSource::new(vruns), count, &mut scratch).unwrap();
            let mut got: Vec<u32> = Vec::new();
            while let Some((_, h)) = lt.pop().unwrap() {
                got.push(h.oid);
            }
            drop(lt);
            assert_eq!(got, dlo, "count={count}");
            let c = scratch.counters();
            if count > 1 && n > 16 {
                assert!(c.comparisons > 0);
            }
        }
    }

    #[test]
    fn streamed_source_orders_multi_word_keys() {
        // Two-word keys engineered to collide on word 0, so ordering
        // depends on the tail comparisons behind the word-0 ties.
        let mut state = 0xBEEF_BEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut vruns: Vec<Vec<(Vec<u64>, u32)>> = Vec::new();
        let mut all: Vec<(Vec<u64>, u32)> = Vec::new();
        let mut oid = 0u32;
        for _ in 0..4 {
            let mut run: Vec<Vec<u64>> = (0..50).map(|_| vec![next() % 3, next() % 1000]).collect();
            run.sort_unstable();
            let run: Vec<(Vec<u64>, u32)> = run
                .into_iter()
                .map(|w| {
                    oid += 1;
                    (w, oid - 1)
                })
                .collect();
            all.extend(run.iter().cloned());
            vruns.push(run);
        }
        // Stable by (key, oid): oids were assigned in run order, so this
        // is exactly "equal keys drain in run order".
        let mut want = all.clone();
        want.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));

        let mut scratch = MergeScratch::new();
        let mut lt = LoserTree::new(VecSource::new(vruns), 4, &mut scratch).unwrap();
        let mut got: Vec<u32> = Vec::new();
        while let Some((_, h)) = lt.pop().unwrap() {
            got.push(h.oid);
        }
        drop(lt);
        let want_oids: Vec<u32> = want.iter().map(|e| e.1).collect();
        assert_eq!(got, want_oids);
        let c = scratch.counters();
        assert!(c.comparisons >= 200 - 4);
        assert_eq!(c.ovc_hits, 0);
    }

    /// A source whose two run heads load fine and whose first refill
    /// fails.
    struct Failing {
        calls: usize,
    }

    impl MergeSource for Failing {
        type Error = &'static str;

        fn next(&mut self, _run: usize) -> Result<Option<MergeHead>, &'static str> {
            self.calls += 1;
            if self.calls <= 2 {
                Ok(Some(MergeHead {
                    word0: self.calls as u64,
                    oid: self.calls as u32,
                }))
            } else {
                Err("read failed")
            }
        }
    }

    #[test]
    fn tree_over_no_runs_is_drained() {
        // No runs at all.
        let mut scratch = MergeScratch::new();
        let mut lt = LoserTree::new(VecSource::new(Vec::new()), 0, &mut scratch).unwrap();
        assert_eq!(lt.pop().unwrap(), None);
        assert_eq!(lt.pop().unwrap(), None);
    }

    #[test]
    fn counters_are_credited_once_on_every_exit_path() {
        let sorted_runs = |count: usize, len: u64| -> Vec<Vec<(Vec<u64>, u32)>> {
            (0..count as u64)
                .map(|r| {
                    (0..len)
                        .map(|i| (vec![i * 7 + r], (r * len + i) as u32))
                        .collect()
                })
                .collect()
        };
        // One scratch throughout: each step checks what it added to the
        // scratch's counters.
        let mut scratch = MergeScratch::new();
        let mut seen = MergeCounters::default();
        let mut credited = |scratch: &MergeScratch| {
            let c = scratch.counters().since(seen);
            seen = scratch.counters();
            c
        };

        // Drained: every pop credited, and only when the tree goes away
        // (repeated `None` pops add nothing).
        let mut lt = LoserTree::new(VecSource::new(sorted_runs(4, 50)), 4, &mut scratch).unwrap();
        while lt.pop().unwrap().is_some() {}
        assert_eq!(lt.pop().unwrap(), None);
        drop(lt);
        let drained = credited(&scratch);
        assert!(drained.comparisons >= 200 - 4);
        assert_eq!(credited(&scratch), MergeCounters::default());

        // Abandoned mid-way, as a caller whose cancel token fired does:
        // the matches played so far are credited, once.
        let mut lt = LoserTree::new(VecSource::new(sorted_runs(4, 50)), 4, &mut scratch).unwrap();
        for _ in 0..60 {
            lt.pop().unwrap().unwrap();
        }
        drop(lt);
        let abandoned = credited(&scratch);
        assert!(abandoned.comparisons >= 60 && abandoned.comparisons < drained.comparisons);
        assert_eq!(credited(&scratch), MergeCounters::default());

        // Source error: the rebuild's match survives the unwinding `?`.
        let mut lt = LoserTree::new(Failing { calls: 0 }, 2, &mut scratch).unwrap();
        assert_eq!(lt.pop(), Err("read failed"));
        drop(lt);
        assert_eq!(credited(&scratch).comparisons, 1);
        assert_eq!(credited(&scratch), MergeCounters::default());

        // A slice merge whose token has fired: rebuild credited, once.
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
