//! The budgeted multi-column sort: an MSD range partition of the output
//! oids on the direction-adjusted key, then one in-memory sort per
//! budget-sized bucket.

use std::ops::Range;
use std::time::Instant;

use mcs_columnar::CodeVec;
use mcs_core::{
    check_inputs, lease_footprint_bytes, multi_column_sort_rows, multi_column_sort_rows_into,
    width_mask, CancelToken, ExecArena, ExecConfig, ExecStats, GroupBounds, KeyColumnsAt,
    MassagePlan, MultiColumnSortOutput, SortError, SortSpec, CHECK_INTERVAL,
};
use mcs_telemetry as telemetry;

/// What the budgeted path did, for `QueryTimings` / EXPLAIN and the
/// benchmark's `spill_sort` workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Buckets sorted one at a time under the budget (0 = the in-memory
    /// path ran).
    pub runs: u64,
    /// Always 0: the partition writes nothing to disk. Kept so that
    /// readers of the stats still build.
    pub bytes: u64,
    /// Always 0: buckets are key ranges, so nothing is merged. Kept so
    /// that readers of the stats still build.
    pub merge_comparisons: u64,
    /// Always 0: nothing is merged, so no offset-value code decides a
    /// match. Kept so that readers of the stats still build.
    pub merge_ovc_hits: u64,
}

/// Rows per bucket so that one bucket's in-memory sort stays within
/// `budget_bytes` of leased footprint. Derived from
/// [`lease_footprint_bytes`], which is linear in the row count; always
/// at least 1 so pathological budgets degrade to tiny buckets instead of
/// failing. This only sizes buckets: whether to partition at all is
/// [`external_multi_column_sort_with`]'s footprint test.
pub fn chunk_rows_for_budget(plan: &MassagePlan, cfg: &ExecConfig, budget_bytes: usize) -> usize {
    const PROBE: usize = 4096;
    let per_row = lease_footprint_bytes(plan, PROBE, cfg)
        .div_ceil(PROBE)
        .max(1);
    (budget_bytes / per_row).max(1)
}

/// One column's share of a key digit: the direction-adjusted code's bits
/// `[rshift, rshift + len)` (kept by `mask`), placed at digit bit
/// `lshift`.
#[derive(Debug, Clone, Copy, Default)]
struct Part {
    col: usize,
    xor: u64,
    rshift: u32,
    mask: u64,
    lshift: u32,
}

impl Part {
    #[inline]
    fn bits(&self, code: u64) -> u8 {
        ((((code ^ self.xor) >> self.rshift) & self.mask) << self.lshift) as u8
    }

    /// `out[i] = bits(code i)` when `first`, else `out[i] |= bits(code i)`.
    #[inline]
    fn put(&self, codes: impl Iterator<Item = u64>, first: bool, out: &mut [u8]) {
        if first {
            for (o, c) in out.iter_mut().zip(codes) {
                *o = self.bits(c);
            }
        } else {
            for (o, c) in out.iter_mut().zip(codes) {
                *o |= self.bits(c);
            }
        }
    }
}

/// The rows a digit pass reads: `start..start + len`, or a list.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    Span(usize),
    List(&'a [u32]),
}

impl Rows<'_> {
    /// Row `i` of the pass.
    #[inline]
    fn row(self, i: usize) -> u32 {
        match self {
            Rows::Span(start) => (start + i) as u32,
            Rows::List(list) => list[i],
        }
    }
}

/// One byte of the key that `specs` concatenate, most significant column
/// first, each code complemented when DESC — so digit order is `ORDER BY`
/// order. A byte spans at most eight columns (each is at least one bit
/// wide).
#[derive(Debug, Clone, Copy)]
struct Digit {
    parts: [Part; 8],
    len: usize,
}

impl Digit {
    /// Digit `level` (0 = the key's most significant byte; the last one
    /// may hold fewer than 8 bits), or `None` once the key has no bits
    /// left.
    fn at(specs: &[SortSpec], level: u32) -> Option<Digit> {
        let total: u32 = specs.iter().map(|s| s.width).sum();
        let hi = total.checked_sub(8 * level).filter(|&h| h > 0)?;
        let lo = hi.saturating_sub(8);
        let mut digit = Digit {
            parts: [Part::default(); 8],
            len: 0,
        };
        // Column `col` holds key bits `[end - width, end)`.
        let mut end = total;
        for (col, s) in specs.iter().enumerate() {
            let start = end - s.width;
            let (a, b) = (lo.max(start), hi.min(end));
            if a < b {
                digit.parts[digit.len] = Part {
                    col,
                    xor: if s.descending { width_mask(s.width) } else { 0 },
                    rshift: a - start,
                    mask: (1u64 << (b - a)) - 1,
                    lshift: a - lo,
                };
                digit.len += 1;
            }
            end = start;
        }
        Some(digit)
    }

    /// The digit of each row of `rows` into `out` (one byte per row): one
    /// pass per part, each in its column's code type.
    fn fill(&self, cols: &[&CodeVec], rows: Rows<'_>, out: &mut [u8]) {
        #[inline]
        fn pass<C: Copy + Into<u64>>(
            p: &Part,
            codes: &[C],
            rows: Rows<'_>,
            first: bool,
            out: &mut [u8],
        ) {
            match rows {
                Rows::Span(start) => {
                    let span = &codes[start..start + out.len()];
                    p.put(span.iter().map(|&c| c.into()), first, out);
                }
                Rows::List(list) => {
                    let codes = list.iter().map(|&r| codes[r as usize].into());
                    p.put(codes, first, out);
                }
            }
        }
        for (k, p) in self.parts[..self.len].iter().enumerate() {
            match cols[p.col] {
                CodeVec::U8(c) => pass(p, c, rows, k == 0, out),
                CodeVec::U16(c) => pass(p, c, rows, k == 0, out),
                CodeVec::U32(c) => pass(p, c, rows, k == 0, out),
                CodeVec::U64(c) => pass(p, c, rows, k == 0, out),
            }
        }
    }
}

/// Stable counting scatter of `rows` into `dst` by their `digits` (one
/// byte per row). Returns the end offset (within `dst`) of each digit's
/// range, or `None` when every row has the same digit: then the scatter
/// would copy `rows` as they are, and `dst` is left untouched (the caller
/// passes `dst` already holding `rows`).
fn scatter(
    digits: &[u8],
    rows: Rows<'_>,
    dst: &mut [u32],
    cancel: &CancelToken,
) -> Result<Option<[usize; 256]>, SortError> {
    let mut next = [0usize; 256];
    for &d in digits {
        next[d as usize] += 1;
    }
    if next.contains(&dst.len()) {
        return Ok(None);
    }
    let mut acc = 0;
    for slot in next.iter_mut() {
        let count = *slot;
        *slot = acc;
        acc += count;
    }
    for (i, &d) in digits.iter().enumerate() {
        if i % CHECK_INTERVAL == 0 {
            cancel.check()?;
        }
        let slot = &mut next[d as usize];
        dst[*slot] = rows.row(i);
        *slot += 1;
    }
    Ok(Some(next))
}

/// Element-wise accumulation of per-bucket executor stats (ns and
/// counters sum; `max_group` takes the max; the probe sums only while
/// every bucket reported).
fn accumulate(acc: &mut ExecStats, s: &ExecStats) {
    acc.massage_ns += s.massage_ns;
    acc.decode_ns += s.decode_ns;
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

/// The state of one budgeted sort. `oids` is the output, partitioned in
/// place: every range handed to [`Partition::split`] holds its rows in
/// the caller's order, all sharing the key digits above its level.
struct Partition<'a> {
    inputs: &'a [&'a CodeVec],
    /// The caller's row list (`None`: every row, in order).
    rows: Option<&'a [u32]>,
    specs: &'a [SortSpec],
    plan: &'a MassagePlan,
    /// The caller's config without the budget (a bucket fits by
    /// construction).
    cfg: ExecConfig,
    arena: &'a mut ExecArena,
    bucket_rows: usize,
    oids: Vec<u32>,
    /// Final group offsets, when the caller wants them.
    offsets: Vec<u32>,
    /// The key columns `cfg.want_keys` names, in output order (the others
    /// stay empty; no column at all when it names none).
    keys: Vec<Vec<u64>>,
    /// The oids of the range being split: one buffer, reused.
    copy: Vec<u32>,
    /// The digit of each row of the range being split: one buffer, reused.
    digits: Vec<u8>,
    stats: ExecStats,
    buckets: u64,
    partition_ns: u64,
}

impl Partition<'_> {
    /// Partition `range` on digit `level` and sort it bucket by bucket,
    /// in key order. Adjacent digits share a bucket while it holds at
    /// most `bucket_rows` rows; a digit with more recurses on the next
    /// byte.
    fn split(&mut self, range: Range<usize>, mut level: u32) -> Result<(), SortError> {
        // A digit every row shares orders nothing: read the next one.
        let ends = loop {
            let Some(digit) = Digit::at(self.specs, level) else {
                // Past the key's last bit: every row of the range ties,
                // and the range already holds them in row order.
                return self.emit_group(range);
            };
            self.cfg.sort.cancel.check()?;
            let t = Instant::now();
            let dst = &mut self.oids[range.clone()];
            // The top level reads the caller's rows where they lie (`oids`
            // starts as them); deeper ones read a copy of their range and
            // scatter it back in place.
            let rows = match (level, self.rows) {
                (0, None) => Rows::Span(range.start),
                (0, Some(list)) => Rows::List(list),
                _ => {
                    self.copy.clear();
                    self.copy.extend_from_slice(dst);
                    Rows::List(&self.copy)
                }
            };
            let digits = &mut self.digits[..range.len()];
            digit.fill(self.inputs, rows, digits);
            let ends = scatter(digits, rows, dst, &self.cfg.sort.cancel)?;
            self.partition_ns += t.elapsed().as_nanos() as u64;
            match ends {
                Some(ends) => break ends,
                None => level += 1,
            }
        };

        let (mut bucket, mut start) = (range.start, range.start);
        for end in ends.map(|e| range.start + e) {
            if end - start > self.bucket_rows {
                self.sort_bucket(bucket..start)?;
                self.split(start..end, level + 1)?;
                bucket = end;
            } else if end - bucket > self.bucket_rows {
                self.sort_bucket(bucket..start)?;
                bucket = start;
            }
            start = end;
        }
        self.sort_bucket(bucket..range.end)
    }

    /// Sort the rows of `range` (one key range) in memory, reading the
    /// key columns through its oids, and put them back in sorted order —
    /// the named key columns decoded straight into their range.
    fn sort_bucket(&mut self, range: Range<usize>) -> Result<(), SortError> {
        if range.len() <= 1 {
            return self.emit_group(range);
        }
        self.enter_bucket()?;
        let t = Instant::now();
        let (inputs, specs, plan) = (self.inputs, self.specs, self.plan);
        let rows = Some(&self.oids[range.clone()]);
        let keys = KeyColumnsAt {
            cols: &mut self.keys,
            at: range.start,
        };
        let out =
            multi_column_sort_rows_into(inputs, rows, specs, plan, &self.cfg, self.arena, keys)?;
        // Ties keep their order in the bucket, which is the caller's.
        self.oids[range.clone()].copy_from_slice(&out.oids);
        if self.cfg.want_final_groups {
            let base = range.start as u32;
            self.offsets
                .extend(out.groups.offsets[1..].iter().map(|&o| base + o));
        }
        accumulate(&mut self.stats, &out.stats);
        telemetry::record_span(
            "mcs.extsort.bucket_sort",
            t.elapsed().as_nanos() as u64,
            vec![
                ("bucket", self.buckets.into()),
                ("rows", range.len().into()),
            ],
        );
        Ok(())
    }

    /// `range` as one tie group, left in the order of the caller's rows;
    /// its named key columns repeat the codes of its first row.
    fn emit_group(&mut self, range: Range<usize>) -> Result<(), SortError> {
        if range.is_empty() {
            return Ok(());
        }
        self.enter_bucket()?;
        if self.cfg.want_final_groups {
            self.offsets.push(range.end as u32);
        }
        let row = self.oids[range.start] as usize;
        for (c, col) in self.keys.iter_mut().enumerate() {
            if self.cfg.wants_key(c) {
                col[range.clone()].fill(self.inputs[c].get(row));
            }
        }
        Ok(())
    }

    fn enter_bucket(&mut self) -> Result<(), SortError> {
        mcs_faults::delay_point(mcs_faults::points::EXEC_DELAY_SPILL);
        self.cfg.sort.cancel.check()?;
        self.buckets += 1;
        Ok(())
    }
}

/// Sort the rows `rows` lists (all rows when `None`) of `inputs` under
/// `plan` within `cfg.memory_budget_bytes` of working memory:
/// range-partition the rows on the key, one byte per level, then sort
/// each bucket of at most [`chunk_rows_for_budget`] rows in memory
/// (through `arena`). Output is byte-identical to
/// [`multi_column_sort_rows`] — same oids, the same key columns for
/// `cfg.want_keys`, and the same group offsets when
/// `cfg.want_final_groups` is set (when it is not, the budgeted path
/// returns the trivial single group where the in-memory path returns its
/// pre-final refinement; callers that consume groups must request final
/// groups).
///
/// This is the one owner of the partition decision: with no budget, or
/// when the in-memory sort's leased footprint
/// ([`lease_footprint_bytes`]`(plan, n, cfg)`) fits it, it sorts in
/// memory and reports zero buckets; otherwise it partitions.
///
/// Outside the budget sit the output oids and key columns, one oid
/// buffer the size of the range being split, and one digit byte per row
/// (DESIGN.md §13).
pub fn budgeted_sort_rows(
    inputs: &[&CodeVec],
    rows: Option<&[u32]>,
    specs: &[SortSpec],
    plan: &MassagePlan,
    cfg: &ExecConfig,
    arena: &mut ExecArena,
) -> Result<(MultiColumnSortOutput, SpillStats), SortError> {
    let n = rows.map_or_else(|| inputs.first().map_or(0, |c| c.len()), <[u32]>::len);
    let budget = cfg.memory_budget_bytes;
    let Some(budget_bytes) = budget.filter(|&b| lease_footprint_bytes(plan, n, cfg) > b) else {
        let out = multi_column_sort_rows(inputs, rows, specs, plan, cfg, arena)?;
        return Ok((out, SpillStats::default()));
    };
    check_inputs(inputs, rows, specs, plan)?;
    cfg.sort.cancel.check()?;

    let total_t = Instant::now();
    let mut bucket_cfg = cfg.clone();
    bucket_cfg.memory_budget_bytes = None;
    let bucket_rows = chunk_rows_for_budget(plan, cfg, budget_bytes);
    arena.reserve(plan, bucket_rows.min(n), &bucket_cfg);
    let mut p = Partition {
        inputs,
        rows,
        specs,
        plan,
        cfg: bucket_cfg,
        arena,
        bucket_rows,
        oids: rows.map_or_else(|| (0..n as u32).collect(), <[u32]>::to_vec),
        offsets: vec![0],
        keys: cfg.wanted_keys(inputs.len(), |_| vec![0; n]),
        copy: Vec::new(),
        digits: vec![0; n],
        stats: ExecStats {
            round_loop_allocs: Some(0),
            ..ExecStats::default()
        },
        buckets: 0,
        partition_ns: 0,
    };
    p.split(0..n, 0)?;
    telemetry::record_span(
        "mcs.extsort.partition",
        p.partition_ns,
        vec![("buckets", p.buckets.into()), ("rows", n.into())],
    );

    let groups = if cfg.want_final_groups && n > 0 {
        GroupBounds::from_offsets(p.offsets)
    } else {
        GroupBounds::whole(n)
    };
    let mut stats = p.stats;
    stats.arena = p.arena.stats();
    stats.total_ns = total_t.elapsed().as_nanos() as u64;
    let spill = SpillStats {
        runs: p.buckets,
        ..SpillStats::default()
    };
    Ok((
        MultiColumnSortOutput {
            oids: p.oids,
            groups,
            keys: p.keys,
            stats,
        },
        spill,
    ))
}

/// [`budgeted_sort_rows`] over every row, within `budget_bytes`.
pub fn external_multi_column_sort_with(
    inputs: &[&CodeVec],
    specs: &[SortSpec],
    plan: &MassagePlan,
    cfg: &ExecConfig,
    arena: &mut ExecArena,
    budget_bytes: usize,
) -> Result<(MultiColumnSortOutput, SpillStats), SortError> {
    let mut cfg = cfg.clone();
    cfg.memory_budget_bytes = Some(budget_bytes);
    budgeted_sort_rows(inputs, None, specs, plan, &cfg, arena)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mcs_core::multi_column_sort_with;

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
    fn digits_read_the_key_a_byte_at_a_time() {
        // 3 + 5 + 20 = 28 bits, DESC in the middle: digit 0 is the 3-bit
        // column, the complemented 5-bit one, and digit 1 onward the
        // 20-bit column; digit 3 holds its last 4 bits; digit 4 is past
        // the end.
        let sp = specs(&[(3, false), (5, true), (20, false)]);
        let c0 = CodeVec::from_u64s(3, [0b101u64]);
        let c1 = CodeVec::from_u64s(5, [0b00110u64]);
        let c2 = CodeVec::from_u64s(20, [0xABCDEu64]);
        let cols: Vec<&CodeVec> = vec![&c0, &c1, &c2];
        let key: u64 = (0b101 << 25) | (0b11001 << 20) | 0xABCDE;
        for level in 0..4u32 {
            let lo = 28i32 - 8 * (level as i32 + 1);
            let want = if lo >= 0 {
                (key >> lo) & 0xFF
            } else {
                key & ((1 << (8 + lo)) - 1)
            };
            let d = Digit::at(&sp, level).unwrap();
            let mut got = [0u8];
            d.fill(&cols, Rows::Span(0), &mut got);
            assert_eq!(got[0] as u64, want, "level {level}");
        }
        assert!(Digit::at(&sp, 4).is_none());
    }

    #[test]
    fn partitioned_sort_matches_in_memory_byte_for_byte() {
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

        // A budget forcing several buckets.
        let budget = lease_footprint_bytes(&plan, n, &cfg) / 8;
        let mut arena2 = ExecArena::new();
        let (got, spill) =
            external_multi_column_sort_with(&inputs, &sp, &plan, &cfg, &mut arena2, budget)
                .unwrap();
        assert!(spill.runs >= 4, "expected >= 4 buckets, got {}", spill.runs);
        assert_eq!((spill.bytes, spill.merge_comparisons), (0, 0));
        assert_eq!(got.oids, want.oids);
        assert_eq!(got.groups.offsets, want.groups.offsets);
    }

    #[test]
    fn unbounded_budget_never_partitions() {
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

    #[test]
    fn malformed_inputs_are_typed_errors_under_a_budget() {
        let c0 = CodeVec::from_u64s(10, [3u64, 1, 2, 1]);
        let sp = specs(&[(10, false), (4, false)]);
        let plan = MassagePlan::column_at_a_time(&sp);
        let cfg = ExecConfig {
            memory_budget_bytes: Some(1),
            ..ExecConfig::default()
        };
        let sort = |cols: &[&CodeVec], rows: Option<&[u32]>| {
            budgeted_sort_rows(cols, rows, &sp, &plan, &cfg, &mut ExecArena::new()).unwrap_err()
        };
        let err = sort(&[&c0], None);
        assert!(
            matches!(err, SortError::ColumnCountMismatch { .. }),
            "{err}"
        );
        let short = CodeVec::from_u64s(4, [1u64, 2]);
        let c1 = CodeVec::from_u64s(4, [1u64; 4]);
        let err = sort(&[&c0, &short], None);
        let want = SortError::ColumnLengthMismatch {
            column: 1,
            len: 2,
            expected: 4,
        };
        assert_eq!(err, want);
        let err = sort(&[&c0, &c1], Some(&[0, 4, 1]));
        assert_eq!(err, SortError::RowOutOfRange { row: 4, rows: 4 });
    }
}
