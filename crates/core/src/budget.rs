//! The budgeted path of [`crate::multi_column_sort`]: when a caller
//! sets a working-memory budget smaller than the sort's leased footprint
//! ([`crate::lease_footprint_bytes`]), the output oids are
//! range-partitioned on the direction-adjusted key, one byte per level
//! read straight from the input columns, into buckets of at most
//! [`chunk_rows_for_budget`] rows. Each bucket is sorted in memory by the
//! massaged SIMD sort, which reads the key columns through the bucket's
//! oids, leases buffers from the caller's [`ExecArena`] and writes its
//! oids, group offsets and named key columns straight into the bucket's
//! range of the output. A byte that holds more rows than a bucket
//! recurses on the next byte; one that runs past the key's last bit is a
//! single tie group.
//!
//! The inputs are resident columns, so nothing goes to disk and nothing
//! is merged: buckets are disjoint key ranges in key order. See
//! `DESIGN.md` §13.
//!
//! The output is **byte-identical** to the in-memory sort's: the first
//! level scatters the caller's rows stably, so every bucket holds its
//! rows in the caller's order; bucket edges are group edges; and the
//! executor emits ties in the order of its row list (its `Auto` kernels
//! are stable; under `MergeSort` it canonicalizes them).
//! `tests/differential_oracle.rs` and `tests/partition_proptests.rs`
//! assert this across the plan/bank/thread/direction matrix.

use std::ops::Range;
use std::time::Instant;

use mcs_cancel::{CancelToken, CHECK_INTERVAL};
use mcs_columnar::CodeVec;
use mcs_telemetry as telemetry;

use crate::arena::{lease_footprint_bytes, ExecArena};
use crate::executor::{push_groups, ExecConfig, Job, MultiColumnSortOutput, SortError};
use crate::massage::width_mask;
use crate::plan::{MassagePlan, SortSpec};

/// Rows per bucket so that one bucket's in-memory sort stays within
/// `budget_bytes` of leased footprint. Derived from
/// [`lease_footprint_bytes`], which is linear in the row count; always
/// at least 1 so pathological budgets degrade to tiny buckets instead of
/// failing. This only sizes buckets: whether to partition at all is the
/// sort door's footprint test.
pub(crate) fn chunk_rows_for_budget(
    plan: &MassagePlan,
    cfg: &ExecConfig,
    budget_bytes: usize,
) -> usize {
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

/// The state of one budgeted sort. `out.oids` is partitioned in place:
/// every range handed to [`Partition::split`] holds its rows in the
/// caller's order, all sharing the key digits above its level.
struct Partition<'a> {
    job: &'a Job<'a>,
    /// The caller's row list (`None`: every row, in order).
    rows: Option<&'a [u32]>,
    arena: &'a mut ExecArena,
    out: &'a mut MultiColumnSortOutput,
    bucket_rows: usize,
    /// The oids of the range being split or sorted: one buffer, reused.
    copy: Vec<u32>,
    /// The digit of each row of the range being split: one buffer, reused.
    digits: Vec<u8>,
    partition_ns: u64,
}

impl Partition<'_> {
    /// Partition `range` on digit `level` and sort it bucket by bucket,
    /// in key order. Adjacent digits share a bucket while it holds at
    /// most `bucket_rows` rows; a digit with more recurses on the next
    /// byte.
    fn split(&mut self, range: Range<usize>, mut level: u32) -> Result<(), SortError> {
        let job = self.job;
        let cancel = &job.cfg.sort.cancel;
        // A digit every row shares orders nothing: read the next one.
        let ends = loop {
            let Some(digit) = Digit::at(job.specs, level) else {
                // Past the key's last bit: every row of the range ties,
                // and the range already holds them in row order.
                return self.emit_group(range);
            };
            cancel.check()?;
            let t = Instant::now();
            let dst = &mut self.out.oids[range.clone()];
            // The top level reads the caller's rows where they lie (the
            // output starts as them); deeper ones read a copy of their
            // range and scatter it back in place.
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
            digit.fill(job.inputs, rows, digits);
            let ends = scatter(digits, rows, dst, cancel)?;
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
    /// key columns through its oids, and write them back over the range
    /// in sorted order — the named key columns decoded straight into it.
    fn sort_bucket(&mut self, range: Range<usize>) -> Result<(), SortError> {
        if range.len() <= 1 {
            return self.emit_group(range);
        }
        self.enter_bucket()?;
        let t = Instant::now();
        // Ties keep their order in the bucket, which is the caller's.
        self.copy.clear();
        self.copy.extend_from_slice(&self.out.oids[range.clone()]);
        self.job
            .sort_into(Some(&self.copy), self.arena, self.out, range.start)?;
        telemetry::record_span(
            "mcs.budget.bucket_sort",
            t.elapsed().as_nanos() as u64,
            vec![
                ("bucket", self.out.stats.buckets.into()),
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
        let Job { inputs, cfg, .. } = self.job;
        if cfg.want_final_groups {
            let len = range.len() as u32;
            push_groups(&mut self.out.groups.offsets, range.start, &[0, len]);
        }
        let row = self.out.oids[range.start] as usize;
        for (c, col) in self.out.keys.iter_mut().enumerate() {
            if cfg.wants_key(c) {
                col[range.clone()].fill(inputs[c].get(row));
            }
        }
        Ok(())
    }

    fn enter_bucket(&mut self) -> Result<(), SortError> {
        mcs_faults::delay_point(mcs_faults::points::EXEC_DELAY_SPILL);
        self.job.cfg.sort.cancel.check()?;
        self.out.stats.buckets += 1;
        Ok(())
    }
}

/// Sort the rows `rows` lists (every row when `None`) of `job` within
/// `budget_bytes` of working memory into `out`, whose oids and named key
/// columns are as long as the sort: range-partition the rows on the key,
/// one byte per level, then sort each bucket of at most
/// [`chunk_rows_for_budget`] rows in memory (through `arena`).
///
/// Outside the budget sit the output oids and key columns, one oid
/// buffer the size of the range being split, and one digit byte per row
/// (DESIGN.md §13).
pub(crate) fn sort(
    job: &Job<'_>,
    rows: Option<&[u32]>,
    budget_bytes: usize,
    arena: &mut ExecArena,
    out: &mut MultiColumnSortOutput,
) -> Result<(), SortError> {
    let n = out.oids.len();
    for (i, o) in out.oids.iter_mut().enumerate() {
        *o = rows.map_or(i as u32, |rows| rows[i]);
    }
    let bucket_rows = chunk_rows_for_budget(job.plan, job.cfg, budget_bytes);
    out.stats.bucket_rows = bucket_rows;
    arena.reserve(job.plan, bucket_rows.min(n), job.cfg);
    let mut p = Partition {
        job,
        rows,
        arena,
        out,
        bucket_rows,
        copy: Vec::new(),
        digits: vec![0; n],
        partition_ns: 0,
    };
    p.split(0..n, 0)?;
    telemetry::record_span(
        "mcs.budget.partition",
        p.partition_ns,
        vec![("buckets", p.out.stats.buckets.into()), ("rows", n.into())],
    );
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{multi_column_sort, ExecStats};

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
        let want =
            multi_column_sort(&inputs, None, &sp, &plan, &cfg, &mut ExecArena::new()).unwrap();

        // A budget forcing several buckets.
        let budgeted = ExecConfig {
            memory_budget_bytes: Some(lease_footprint_bytes(&plan, n, &cfg) / 8),
            ..ExecConfig::default()
        };
        let got =
            multi_column_sort(&inputs, None, &sp, &plan, &budgeted, &mut ExecArena::new()).unwrap();
        let buckets = got.stats.buckets;
        assert!(buckets >= 4, "expected >= 4 buckets, got {buckets}");
        assert_eq!(got.oids, want.oids);
        assert_eq!(got.groups.offsets, want.groups.offsets);
    }

    #[test]
    fn the_door_partitions_only_under_a_binding_budget() {
        let mut rng = mcs_test_support::Rng::seed_from_u64(0xD00B);
        let n = 3_000usize;
        let c0 = CodeVec::from_u64s(7, (0..n).map(|_| rng.gen_range(0..90)).collect::<Vec<_>>());
        let c1 = CodeVec::from_u64s(
            21,
            (0..n).map(|_| rng.gen_range(0..500)).collect::<Vec<_>>(),
        );
        let inputs: Vec<&CodeVec> = vec![&c0, &c1];
        let sp = specs(&[(7, true), (21, false)]);
        let plan = MassagePlan::from_widths(&[10, 18]);
        let footprint = lease_footprint_bytes(&plan, n, &ExecConfig::default());
        let mut runs = Vec::new();
        for budget in [None, Some(footprint), Some(footprint / 8)] {
            let cfg = ExecConfig {
                want_keys: 0b11,
                memory_budget_bytes: budget,
                ..ExecConfig::default()
            };
            let out =
                multi_column_sort(&inputs, None, &sp, &plan, &cfg, &mut ExecArena::new()).unwrap();
            runs.push(out);
        }
        let [none, fits, binds] = &runs[..] else {
            unreachable!()
        };
        for fit in [none, fits] {
            assert_eq!((fit.stats.buckets, fit.stats.bucket_rows), (0, 0));
        }
        assert!(binds.stats.buckets >= 2, "{} buckets", binds.stats.buckets);
        assert!((1..n).contains(&binds.stats.bucket_rows));
        for out in [fits, binds] {
            assert_eq!(out.oids, none.oids);
            assert_eq!(out.groups.offsets, none.groups.offsets);
            assert_eq!(out.keys, none.keys);
        }
        assert_eq!(none.keys[1].len(), n);
    }

    #[test]
    fn unbounded_budget_never_partitions() {
        let c0 = CodeVec::from_u64s(10, [3u64, 1, 2, 1]);
        let sp = specs(&[(10, false)]);
        let plan = MassagePlan::column_at_a_time(&sp);
        let cfg = ExecConfig {
            memory_budget_bytes: Some(usize::MAX),
            ..ExecConfig::default()
        };
        let out = multi_column_sort(&[&c0], None, &sp, &plan, &cfg, &mut ExecArena::new()).unwrap();
        let ExecStats {
            buckets,
            bucket_rows,
            ..
        } = out.stats;
        assert_eq!((buckets, bucket_rows), (0, 0));
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
            multi_column_sort(cols, rows, &sp, &plan, &cfg, &mut ExecArena::new()).unwrap_err()
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
