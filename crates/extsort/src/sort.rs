//! The external multi-column sort: budgeted chunks → spilled runs →
//! streaming k-way loser-tree merge.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Instant;

use mcs_columnar::CodeVec;
use mcs_core::{
    lease_footprint_bytes, multi_column_sort_with, width_mask, ExecArena, ExecConfig, ExecStats,
    GroupBounds, MassagePlan, MultiColumnSortOutput, SortError, SortSpec, CHECK_INTERVAL,
};
use mcs_simd_sort::{LoserTree, MergeHead, MergeScratch, MergeSource};
use mcs_telemetry as telemetry;

use crate::runfile::{RunFileError, RunFileReader, RunFileWriter};

/// What the external path spilled, for `QueryTimings` / EXPLAIN and the
/// benchmark's `spill_sort` workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs written to disk (0 = the in-memory path ran).
    pub runs: u64,
    /// Total run-file bytes written.
    pub bytes: u64,
    /// Loser-tree matches played by the final streaming merge.
    pub merge_comparisons: u64,
    /// Always 0: the merge carries no offset-value codes. Kept so that
    /// readers of the stats still build.
    pub merge_ovc_hits: u64,
}

/// Bytes of one run-file entry for `specs`: the packed `⌈W/64⌉`-word
/// direction-adjusted key plus the u32 oid.
pub fn run_entry_bytes(specs: &[SortSpec]) -> usize {
    key_words(specs) * 8 + 4
}

fn key_words(specs: &[SortSpec]) -> usize {
    let total: u32 = specs.iter().map(|s| s.width).sum();
    (total as usize).div_ceil(64).max(1)
}

/// Rows per chunk so that one chunk's in-memory sort stays within
/// `budget_bytes` of leased footprint. Derived from
/// [`lease_footprint_bytes`], which is linear in the row count; always
/// at least 1 so pathological budgets degrade to tiny runs instead of
/// failing. This only sizes chunks: whether to spill at all is
/// [`external_multi_column_sort_with`]'s footprint test.
pub fn chunk_rows_for_budget(plan: &MassagePlan, cfg: &ExecConfig, budget_bytes: usize) -> usize {
    const PROBE: usize = 4096;
    let per_row = lease_footprint_bytes(plan, PROBE, cfg)
        .div_ceil(PROBE)
        .max(1);
    (budget_bytes / per_row).max(1)
}

/// Number of [`SpillDir`]s currently alive in this process.
static LIVE_SPILL_DIRS: AtomicU64 = AtomicU64::new(0);

/// How many spill directories (each holding one external sort's run
/// files) are currently alive in this process. Every exit path of
/// [`external_multi_column_sort_with`] — success, I/O error, injected
/// fault, or cancellation — drops its RAII `SpillDir` guard, so this
/// returns to its prior value after every call; the leak tests pin that.
pub fn live_spill_dirs() -> u64 {
    LIVE_SPILL_DIRS.load(AtomicOrdering::SeqCst)
}

/// Self-cleaning spill directory under the OS temp dir: an RAII guard
/// over every run file of one external sort. `Drop` removes the whole
/// directory, so any unwind — merge error, injected fault, cancellation
/// mid-spill — deletes every spilled file without per-file bookkeeping.
struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    fn create() -> Result<SpillDir, SortError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mcs-extsort-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, AtomicOrdering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| SortError::Spill(format!("create spill dir: {e}")))?;
        LIVE_SPILL_DIRS.fetch_add(1, AtomicOrdering::SeqCst);
        Ok(SpillDir { path })
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: a leaked temp dir must not mask the real error.
        let _ = std::fs::remove_dir_all(&self.path);
        LIVE_SPILL_DIRS.fetch_sub(1, AtomicOrdering::SeqCst);
    }
}

/// Per-column bit offsets of the packed key (from the least significant
/// end), most significant column first — column `j` occupies bits
/// `[shift_j, shift_j + width_j)`.
fn column_shifts(specs: &[SortSpec]) -> Vec<u32> {
    let total: u32 = specs.iter().map(|s| s.width).sum();
    let mut acc = total;
    specs
        .iter()
        .map(|s| {
            acc -= s.width;
            acc
        })
        .collect()
}

/// Pack row `row`'s direction-adjusted codes into `words` (most
/// significant word first, right-aligned) so that lexicographic word
/// comparison equals the `ORDER BY` tuple comparison.
fn pack_row(words: &mut [u64], cols: &[&CodeVec], specs: &[SortSpec], shifts: &[u32], row: usize) {
    for w in words.iter_mut() {
        *w = 0;
    }
    let kw = words.len();
    for ((c, s), &sh) in cols.iter().zip(specs).zip(shifts) {
        let mut v = c.get(row);
        if s.descending {
            v ^= width_mask(s.width);
        }
        let lo = (sh / 64) as usize;
        let b = sh % 64;
        words[kw - 1 - lo] |= v << b;
        if b != 0 && b + s.width > 64 {
            words[kw - 2 - lo] |= v >> (64 - b);
        }
    }
}

fn spill_err(e: RunFileError) -> SortError {
    SortError::Spill(e.to_string())
}

/// One spilled run behind a bounded read-ahead buffer, streaming heads
/// for the merge. `words` holds the live head; `emitted` the element
/// most recently surrendered to the tree (the merge's group-boundary
/// scan reads it after each pop).
struct RunCursor {
    reader: RunFileReader,
    words: Vec<u64>,
    emitted: Vec<u64>,
}

impl RunCursor {
    fn open(capacity: usize, path: &Path, kw: usize) -> Result<RunCursor, RunFileError> {
        let reader = RunFileReader::with_capacity(capacity, path)?;
        if reader.header.key_words != kw {
            return Err(RunFileError::BadShape {
                key_words: reader.header.key_words as u16,
                entry_bytes: reader.header.entry_bytes() as u32,
            });
        }
        Ok(RunCursor {
            reader,
            words: vec![0; kw],
            emitted: vec![0; kw],
        })
    }
}

/// The merge's [`MergeSource`] over all spilled runs: each head's first
/// key word goes to the tree, the rest stays in its cursor for
/// [`MergeSource::cmp_tails`].
struct RunsSource {
    cursors: Vec<RunCursor>,
}

impl RunsSource {
    /// The element run `run` most recently surrendered to the tree.
    fn emitted(&self, run: usize) -> &[u64] {
        &self.cursors[run].emitted
    }
}

impl MergeSource for RunsSource {
    type Error = RunFileError;

    fn next(&mut self, run: usize) -> Result<Option<MergeHead>, RunFileError> {
        let c = &mut self.cursors[run];
        // The head we are about to replace is the element being popped.
        c.emitted.copy_from_slice(&c.words);
        Ok(c.reader.read_entry(&mut c.words)?.map(|oid| MergeHead {
            word0: c.words[0],
            oid,
        }))
    }

    fn cmp_tails(&self, a: usize, b: usize) -> core::cmp::Ordering {
        self.cursors[a].words[1..].cmp(&self.cursors[b].words[1..])
    }
}

/// Element-wise accumulation of per-chunk executor stats (ns and
/// counters sum; `max_group` takes the max; the probe sums only while
/// every chunk reported).
fn accumulate(acc: &mut ExecStats, s: &ExecStats) {
    acc.massage_ns += s.massage_ns;
    acc.total_ns += s.total_ns;
    if acc.rounds.len() < s.rounds.len() {
        acc.rounds
            .resize(s.rounds.len(), mcs_core::RoundStats::default());
    }
    for (a, r) in acc.rounds.iter_mut().zip(&s.rounds) {
        a.lookup_ns += r.lookup_ns;
        a.sort_ns += r.sort_ns;
        a.scan_ns += r.scan_ns;
        a.invocations += r.invocations;
        a.codes_sorted += r.codes_sorted;
        a.groups_in += r.groups_in;
        a.groups_out += r.groups_out;
        a.max_group = a.max_group.max(r.max_group);
        a.phases.add(r.phases);
        a.merge.add(r.merge);
    }
    acc.round_loop_allocs = match (acc.round_loop_allocs, s.round_loop_allocs) {
        (Some(x), Some(y)) => Some(x + y),
        _ => None,
    };
}

/// Sort `inputs` under `plan` within `budget_bytes` of resident memory:
/// chunk → in-memory sort (through `arena`) → spill run file → streaming
/// loser-tree merge. Output is byte-identical to
/// [`multi_column_sort_with`] — same oids, and the same group offsets
/// when `cfg.want_final_groups` is set (when it is not, the external
/// path returns the trivial single group where the in-memory path
/// returns its pre-final refinement; callers that consume groups must
/// request final groups).
///
/// This is the one owner of the spill decision: when the in-memory
/// sort's leased footprint ([`lease_footprint_bytes`]`(plan, n, cfg)`) fits
/// the budget, it delegates to the in-memory sort and reports zero
/// spilled runs; otherwise it spills in chunks of
/// [`chunk_rows_for_budget`] rows.
pub fn external_multi_column_sort_with(
    inputs: &[&CodeVec],
    specs: &[SortSpec],
    plan: &MassagePlan,
    cfg: &ExecConfig,
    arena: &mut ExecArena,
    budget_bytes: usize,
) -> Result<(MultiColumnSortOutput, SpillStats), SortError> {
    let n = inputs.first().map_or(0, |c| c.len());
    if lease_footprint_bytes(plan, n, cfg) <= budget_bytes {
        let out = multi_column_sort_with(inputs, specs, plan, cfg, arena)?;
        return Ok((out, SpillStats::default()));
    }
    let chunk_rows = chunk_rows_for_budget(plan, cfg, budget_bytes);

    let total_t = Instant::now();
    let kw = key_words(specs);
    let shifts = column_shifts(specs);
    let dir = SpillDir::create()?;

    // Chunk configs run without final groups (the merge derives the
    // global grouping) and without a budget (each chunk fits by
    // construction).
    let mut chunk_cfg = cfg.clone();
    chunk_cfg.want_final_groups = false;
    chunk_cfg.memory_budget_bytes = None;

    let mut spill = SpillStats::default();
    let mut stats = ExecStats {
        round_loop_allocs: Some(0),
        ..ExecStats::default()
    };
    let mut files: Vec<PathBuf> = Vec::new();
    let mut words = vec![0u64; kw];

    let mut start = 0usize;
    while start < n {
        // Chunk boundary: the chunk sort below polls the token itself
        // (its cancellation unwinds here through `?`, dropping `dir`).
        cfg.sort.cancel.check()?;
        let end = (start + chunk_rows).min(n);
        let chunk_idx = files.len();

        let tc = Instant::now();
        let chunk_cols: Vec<CodeVec> = inputs.iter().map(|c| c.slice(start..end)).collect();
        let refs: Vec<&CodeVec> = chunk_cols.iter().collect();
        let out = multi_column_sort_with(&refs, specs, plan, &chunk_cfg, arena)?;
        telemetry::record_span(
            "mcs.extsort.chunk_sort",
            tc.elapsed().as_nanos() as u64,
            vec![("chunk", chunk_idx.into()), ("rows", (end - start).into())],
        );
        accumulate(&mut stats, &out.stats);

        mcs_faults::delay_point(mcs_faults::points::EXEC_DELAY_SPILL);
        let tw = Instant::now();
        let path = dir.path.join(format!("run-{chunk_idx}.mcsrun"));
        let mut w = RunFileWriter::create(&path, kw, (end - start) as u64).map_err(spill_err)?;
        for (i, &local) in out.oids.iter().enumerate() {
            if i % CHECK_INTERVAL == 0 {
                cfg.sort.cancel.check()?;
            }
            pack_row(&mut words, &refs, specs, &shifts, local as usize);
            w.write_entry(&words, start as u32 + local)
                .map_err(spill_err)?;
        }
        let bytes = w.finish().map_err(spill_err)?;
        telemetry::record_span(
            "mcs.extsort.spill_write",
            tw.elapsed().as_nanos() as u64,
            vec![("run", chunk_idx.into()), ("bytes", bytes.into())],
        );
        spill.runs += 1;
        spill.bytes += bytes;
        files.push(path);
        start = end;
    }

    // Streaming merge: every run behind an equal share of the budget as
    // read-ahead (clamped to something sensible either way).
    mcs_faults::delay_point(mcs_faults::points::EXEC_DELAY_MERGE);
    cfg.sort.cancel.check()?;
    let tm = Instant::now();
    let per_run = (budget_bytes / files.len().max(1)).clamp(4096, 1 << 20);
    let mut cursors = Vec::with_capacity(files.len());
    for p in &files {
        cursors.push(RunCursor::open(per_run, p, kw).map_err(spill_err)?);
    }
    let mut scratch = MergeScratch::new();
    let runs = files.len();
    let mut merger =
        LoserTree::new(RunsSource { cursors }, runs, &mut scratch).map_err(spill_err)?;
    let mut oids: Vec<u32> = Vec::with_capacity(n);
    let mut offsets: Vec<u32> = vec![0];
    let mut prev = vec![0u64; kw];
    while let Some((run, head)) = merger.pop().map_err(spill_err)? {
        if oids.len().is_multiple_of(CHECK_INTERVAL) {
            cfg.sort.cancel.check()?;
        }
        if cfg.want_final_groups {
            let cur = merger.source().emitted(run);
            if !oids.is_empty() && cur != prev.as_slice() {
                offsets.push(oids.len() as u32);
            }
            prev.copy_from_slice(cur);
        }
        oids.push(head.oid);
    }
    offsets.push(n as u32);
    // The tree credits its matches to `scratch` when it goes away.
    drop(merger);
    let counters = scratch.counters();
    spill.merge_comparisons = counters.comparisons;
    telemetry::record_span(
        "mcs.extsort.merge",
        tm.elapsed().as_nanos() as u64,
        vec![
            ("runs", runs.into()),
            ("rows", n.into()),
            ("comparisons", counters.comparisons.into()),
        ],
    );

    let groups = if cfg.want_final_groups {
        GroupBounds::from_offsets(offsets)
    } else {
        GroupBounds::whole(n)
    };
    stats.arena = arena.stats();
    stats.total_ns = total_t.elapsed().as_nanos() as u64;
    Ok((
        MultiColumnSortOutput {
            oids,
            groups,
            stats,
        },
        spill,
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn specs(widths: &[(u32, bool)]) -> Vec<SortSpec> {
        widths
            .iter()
            .map(|&(w, d)| SortSpec {
                width: w,
                descending: d,
            })
            .collect()
    }

    #[test]
    fn packed_rows_order_like_tuples() {
        // 3 columns, 70 bits total -> 2 words; DESC in the middle.
        let sp = specs(&[(30, false), (20, true), (20, false)]);
        let shifts = column_shifts(&sp);
        assert_eq!(shifts, vec![40, 20, 0]);
        let c0 = CodeVec::from_u64s(30, [5u64, 5, 5, 9]);
        let c1 = CodeVec::from_u64s(20, [7u64, 8, 7, 1]);
        let c2 = CodeVec::from_u64s(20, [3u64, 0, 4, 2]);
        let cols: Vec<&CodeVec> = vec![&c0, &c1, &c2];
        let mut packed: Vec<Vec<u64>> = Vec::new();
        for row in 0..4 {
            let mut w = vec![0u64; 2];
            pack_row(&mut w, &cols, &sp, &shifts, row);
            packed.push(w);
        }
        // Tuple order with DESC col 1: (5,8,0) < (5,7,3) < (5,7,4) < (9,1,2).
        let mut idx = [0usize, 1, 2, 3];
        idx.sort_by(|&a, &b| packed[a].cmp(&packed[b]));
        assert_eq!(idx, [1, 0, 2, 3]);
    }

    #[test]
    fn external_matches_in_memory_byte_for_byte() {
        let mut rng = mcs_test_support::Rng::seed_from_u64(0xE47);
        let n = 500usize;
        let c0 = CodeVec::from_u64s(9, (0..n).map(|_| rng.gen_range(0..12)).collect::<Vec<_>>());
        let c1 = CodeVec::from_u64s(33, (0..n).map(|_| rng.gen_range(0..40)).collect::<Vec<_>>());
        let inputs: Vec<&CodeVec> = vec![&c0, &c1];
        let sp = specs(&[(9, false), (33, true)]);
        let plan = MassagePlan::column_at_a_time(&sp);
        let cfg = ExecConfig::default();

        let mut arena = ExecArena::new();
        let want = multi_column_sort_with(&inputs, &sp, &plan, &cfg, &mut arena).unwrap();

        // A budget forcing several runs.
        let budget = lease_footprint_bytes(&plan, n, &cfg) / 8;
        let mut arena2 = ExecArena::new();
        let (got, spill) =
            external_multi_column_sort_with(&inputs, &sp, &plan, &cfg, &mut arena2, budget)
                .unwrap();
        assert!(spill.runs >= 4, "expected >= 4 runs, got {}", spill.runs);
        assert!(spill.bytes > 0);
        assert!(spill.merge_comparisons > 0);
        assert_eq!(got.oids, want.oids);
        assert_eq!(got.groups.offsets, want.groups.offsets);
    }

    #[test]
    fn spill_counters_ignore_earlier_sorts_on_the_thread() {
        // The merge counts its own matches (through its own scratch), so
        // a merge-sort that just ran on the same thread cannot leak into
        // them.
        let spill_on_thread = |merge_sort_first: bool| {
            std::thread::spawn(move || {
                if merge_sort_first {
                    let mut keys: Vec<u32> = (0..20_000u32).map(|i| i.wrapping_mul(7919)).collect();
                    let mut oids: Vec<u32> = (0..20_000).collect();
                    let cfg = mcs_simd_sort::SortConfig {
                        kernel: mcs_simd_sort::SortKernel::MergeSort,
                        in_cache_bytes: 4096,
                        ..Default::default()
                    };
                    mcs_simd_sort::sort_pairs_with(&mut keys, &mut oids, &cfg);
                }
                let c0 =
                    CodeVec::from_u64s(12, (0..600u64).map(|i| i * 37 % 1000).collect::<Vec<_>>());
                let sp = specs(&[(12, false)]);
                let plan = MassagePlan::column_at_a_time(&sp);
                let cfg = ExecConfig::default();
                let budget = lease_footprint_bytes(&plan, 600, &cfg) / 8;
                let mut arena = ExecArena::new();
                external_multi_column_sort_with(&[&c0], &sp, &plan, &cfg, &mut arena, budget)
                    .unwrap()
                    .1
            })
            .join()
            .unwrap()
        };
        let fresh = spill_on_thread(false);
        assert!(fresh.runs >= 4 && fresh.merge_comparisons > 0);
        assert_eq!(spill_on_thread(true), fresh);
    }

    #[test]
    fn unbounded_budget_never_spills() {
        let c0 = CodeVec::from_u64s(10, [3u64, 1, 2, 1]);
        let inputs: Vec<&CodeVec> = vec![&c0];
        let sp = specs(&[(10, false)]);
        let plan = MassagePlan::column_at_a_time(&sp);
        let mut arena = ExecArena::new();
        let (out, spill) = external_multi_column_sort_with(
            &inputs,
            &sp,
            &plan,
            &ExecConfig::default(),
            &mut arena,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(spill, SpillStats::default());
        assert_eq!(out.oids, vec![1, 3, 2, 0]);
    }
}
