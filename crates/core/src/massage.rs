//! The code-massaging kernel: the four-instruction program (FIP) of the
//! paper's Figure 6.
//!
//! Massaging re-partitions the concatenated `W`-bit sort key. Each
//! maximal bit segment that lies in exactly one (input column, output
//! round) pair becomes one [`FipStep`] — shift right, mask, OR, shift
//! left — and the number of steps equals the paper's
//! `I_FIP = |prefix(in) ∪ prefix(out)|`. Execution is one pass per
//! input column: each sorted row's code is read once — in order, or
//! through the caller's row list where it lies — and every step of the
//! column runs over it in branch-free loops; `DESC` columns are
//! complemented on the fly (Figure 5's extra step). The first step into
//! each round assigns and the later ones OR, so a round buffer needs no
//! clearing first.

use crate::plan::{MassagePlan, SortSpec};
use core::ops::Range;
use mcs_cancel::CancelToken;
use mcs_columnar::CodeVec;
use mcs_simd_sort::{for_each_worker, runs_serially, Bank, Key, MorselCounts};

/// One shift/mask/or/shift step: move `len` bits of input column
/// `in_col` into output round `out_col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FipStep {
    /// Source column index.
    pub in_col: usize,
    /// Destination round index.
    pub out_col: usize,
    /// Right-shift applied to the (complemented) source code.
    pub in_shift: u32,
    /// Number of bits moved.
    pub len: u32,
    /// Left-shift placing the bits in the destination code.
    pub out_shift: u32,
    /// Whether this is the first step into its round (the one holding the
    /// round's top bits): it assigns the destination, the later steps OR
    /// into it.
    pub assigns: bool,
}

/// A compiled massage program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MassageProgram {
    /// The steps, in global-bit order (MSB side first).
    pub steps: Vec<FipStep>,
    /// Input column specs (width + direction).
    pub specs: Vec<SortSpec>,
    /// Output round widths.
    pub out_widths: Vec<u32>,
}

impl MassageProgram {
    /// Compile a program that re-partitions columns `specs` into the
    /// rounds of `plan`. Panics if widths don't line up (validated plans
    /// never do).
    pub fn compile(specs: &[SortSpec], plan: &MassagePlan) -> MassageProgram {
        let in_widths: Vec<u32> = specs.iter().map(|s| s.width).collect();
        let out_widths = plan.widths();
        let total_in: u32 = in_widths.iter().sum();
        let total_out: u32 = out_widths.iter().sum();
        assert_eq!(total_in, total_out, "plan does not cover the key");

        // Walk both partitions of [0, W) simultaneously; emit one step per
        // overlap segment.
        let mut steps = Vec::new();
        let mut i = 0usize; // input column
        let mut j = 0usize; // output round
        let mut in_start = 0u32; // global bit where column i starts
        let mut out_start = 0u32; // global bit where round j starts
        let mut pos = 0u32;
        while pos < total_in {
            let in_end = in_start + in_widths[i];
            let out_end = out_start + out_widths[j];
            let seg_end = in_end.min(out_end);
            let len = seg_end - pos;
            // Bits [pos, seg_end) of the global key, as seen from column i
            // (MSB at in_start) and round j (MSB at out_start).
            let in_off = pos - in_start; // offset from column MSB
            let out_off = pos - out_start;
            steps.push(FipStep {
                in_col: i,
                out_col: j,
                in_shift: in_widths[i] - in_off - len,
                len,
                out_shift: out_widths[j] - out_off - len,
                assigns: out_off == 0,
            });
            pos = seg_end;
            if pos == in_end {
                i += 1;
                in_start = in_end;
            }
            if pos == out_end {
                j += 1;
                out_start = out_end;
            }
        }
        MassageProgram {
            steps,
            specs: specs.to_vec(),
            out_widths,
        }
    }

    /// `I_FIP` — equals the number of compiled steps.
    pub fn i_fip(&self) -> usize {
        self.steps.len()
    }

    /// The steps that read input column `col` (steps run in global-bit
    /// order, so each column's are adjacent).
    pub fn column_steps(&self, col: usize) -> &[FipStep] {
        let lo = self.steps.partition_point(|s| s.in_col < col);
        let hi = self.steps.partition_point(|s| s.in_col <= col);
        &self.steps[lo..hi]
    }

    /// Whether the program is a pure per-column identity (no bits cross a
    /// boundary and no column is complemented) — i.e. massaging is a
    /// no-op apart from materializing the round keys.
    pub fn is_identity(&self) -> bool {
        self.steps.len() == self.specs.len()
            && self
                .steps
                .iter()
                .all(|s| s.in_shift == 0 && s.out_shift == 0)
            && self.specs.iter().all(|s| !s.descending)
    }
}

/// `(1 << w) - 1` without overflow at `w = 64`.
#[inline]
pub fn width_mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Rows massaged per block: a block of one column's codes is read once
/// — through the row list, where there is one — into a stack buffer that
/// every step of the column then reads.
const BLOCK_ROWS: usize = 256;

/// Massage the sorted rows `range` into `outs`, which hold just those
/// rows of every round: one pass per key column, reading each of its
/// codes once and placing every step of the column into its round.
/// `cancel` is polled before each column.
fn massage_range<D: RoundDst>(
    inputs: &[&CodeVec],
    rows: Option<&[u32]>,
    prog: &MassageProgram,
    range: Range<usize>,
    outs: &mut [D],
    cancel: &CancelToken,
) {
    let (start, len) = (range.start, range.len());
    let mut codes = [0u64; BLOCK_ROWS];
    for steps in prog.steps.chunk_by(|a, b| a.in_col == b.in_col) {
        if cancel.check().is_err() {
            return;
        }
        let col = steps[0].in_col;
        let spec = prog.specs[col];
        let comp_mask = if spec.descending {
            width_mask(spec.width)
        } else {
            0
        };
        for lo in (0..len).step_by(BLOCK_ROWS) {
            let hi = (lo + BLOCK_ROWS).min(len);
            let block = &mut codes[..hi - lo];
            read_codes(inputs[col], rows, start + lo, comp_mask, block);
            for step in steps {
                match outs[step.out_col].rows() {
                    RoundRows::B16(dst) => place_segment(block, step, &mut dst[lo..hi]),
                    RoundRows::B32(dst) => place_segment(block, step, &mut dst[lo..hi]),
                    RoundRows::B64(dst) => place_segment(block, step, &mut dst[lo..hi]),
                }
            }
        }
    }
}

/// Read the codes of sorted rows `from..from + out.len()` — source row
/// `rows[i]`, or row `i` when `rows` is `None` — complemented by
/// `comp_mask`, into `out`.
fn read_codes(src: &CodeVec, rows: Option<&[u32]>, from: usize, comp_mask: u64, out: &mut [u64]) {
    #[inline]
    fn read<C: Copy + Into<u64>>(
        codes: &[C],
        rows: Option<&[u32]>,
        from: usize,
        comp_mask: u64,
        out: &mut [u64],
    ) {
        match rows {
            None => {
                for (o, &c) in out.iter_mut().zip(&codes[from..]) {
                    *o = c.into() ^ comp_mask;
                }
            }
            Some(rows) => {
                for (o, &r) in out.iter_mut().zip(&rows[from..]) {
                    *o = codes[r as usize].into() ^ comp_mask;
                }
            }
        }
    }
    match src {
        CodeVec::U8(c) => read(c, rows, from, comp_mask, out),
        CodeVec::U16(c) => read(c, rows, from, comp_mask, out),
        CodeVec::U32(c) => read(c, rows, from, comp_mask, out),
        CodeVec::U64(c) => read(c, rows, from, comp_mask, out),
    }
}

/// The step loop: write the step's bit segment of `codes[i]` into
/// `dst[i]` in the bank's physical type — assigned by the round's first
/// step, ORed in by the others. `bits << out_shift` always fits the bank
/// because the round width is bounded by the bank width (enforced by
/// plan validation), so the narrowing `K::from_u64` is lossless.
#[inline]
fn place_segment<K: Key>(codes: &[u64], step: &FipStep, dst: &mut [K]) {
    let seg_mask = width_mask(step.len);
    let bits = |code: u64| ((code >> step.in_shift) & seg_mask) << step.out_shift;
    if step.assigns {
        for (d, &code) in dst.iter_mut().zip(codes) {
            *d = K::from_u64(bits(code));
        }
    } else {
        for (d, &code) in dst.iter_mut().zip(codes) {
            *d = K::from_u64(d.to_u64() | bits(code));
        }
    }
}

/// Some rows of one round's keys, in the bank's physical type.
enum RoundRows<'a> {
    B16(&'a mut [u16]),
    B32(&'a mut [u32]),
    B64(&'a mut [u64]),
}

impl<'a> RoundRows<'a> {
    /// The first `mid` rows and the rest.
    fn split_at(self, mid: usize) -> (RoundRows<'a>, RoundRows<'a>) {
        match self {
            RoundRows::B16(v) => {
                let (a, b) = v.split_at_mut(mid);
                (RoundRows::B16(a), RoundRows::B16(b))
            }
            RoundRows::B32(v) => {
                let (a, b) = v.split_at_mut(mid);
                (RoundRows::B32(a), RoundRows::B32(b))
            }
            RoundRows::B64(v) => {
                let (a, b) = v.split_at_mut(mid);
                (RoundRows::B64(a), RoundRows::B64(b))
            }
        }
    }
}

/// A round's destination for [`massage_range`]: all of its keys on the
/// serial path, one worker's rows of them on the parallel one.
trait RoundDst {
    fn rows(&mut self) -> RoundRows<'_>;
}

impl RoundDst for RoundKeys {
    fn rows(&mut self) -> RoundRows<'_> {
        match self {
            RoundKeys::B16(v) => RoundRows::B16(v),
            RoundKeys::B32(v) => RoundRows::B32(v),
            RoundKeys::B64(v) => RoundRows::B64(v),
        }
    }
}

impl RoundDst for RoundRows<'_> {
    fn rows(&mut self) -> RoundRows<'_> {
        match self {
            RoundRows::B16(v) => RoundRows::B16(v),
            RoundRows::B32(v) => RoundRows::B32(v),
            RoundRows::B64(v) => RoundRows::B64(v),
        }
    }
}

/// Round keys in their bank's physical type, ready for the SIMD sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundKeys {
    /// 16-bit bank keys.
    B16(Vec<u16>),
    /// 32-bit bank keys.
    B32(Vec<u32>),
    /// 64-bit bank keys.
    B64(Vec<u64>),
}

impl RoundKeys {
    /// The bank this buffer physically is.
    pub fn bank(&self) -> Bank {
        match self {
            RoundKeys::B16(_) => Bank::B16,
            RoundKeys::B32(_) => Bank::B32,
            RoundKeys::B64(_) => Bank::B64,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        match self {
            RoundKeys::B16(v) => v.len(),
            RoundKeys::B32(v) => v.len(),
            RoundKeys::B64(v) => v.len(),
        }
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key at `i`, widened.
    pub fn get(&self, i: usize) -> u64 {
        match self {
            RoundKeys::B16(v) => v[i] as u64,
            RoundKeys::B32(v) => v[i] as u64,
            RoundKeys::B64(v) => v[i],
        }
    }
}

/// Massage the sorted rows `rows` lists into `outs` under `prog`
/// (compiled from `plan`): output row `i` is input row `rows[i]`, each
/// column read through the list where it lies, or input row `i` when
/// `rows` is `None`. The list must lie inside the columns (the sort door
/// checks it once per call).
///
/// `outs` holds one [`RoundKeys`] per plan round, each of the round's
/// bank and as long as the list, whatever it holds on entry: every FIP
/// step writes its bit segment straight into the destination bank type,
/// the round's first step by assignment, so no intermediate wide `u64`
/// vectors are materialized and nothing is cleared first.
///
/// `cancel` is polled before each column's pass (one O(n) read of the
/// column that emits all of its FIP steps). A fired token abandons the
/// remaining columns, leaving partially massaged round buffers — the
/// caller must observe the token and discard them. Returns the morsel
/// scheduler counters (all zero when massage ran serially).
pub(crate) fn massage_rows_into(
    inputs: &[&CodeVec],
    rows: Option<&[u32]>,
    prog: &MassageProgram,
    plan: &MassagePlan,
    threads: usize,
    outs: &mut [RoundKeys],
    cancel: &CancelToken,
) -> MorselCounts {
    assert_eq!(inputs.len(), prog.specs.len());
    let len = inputs.first().map_or(0, |c| c.len());
    for c in inputs {
        assert_eq!(c.len(), len, "input column length mismatch");
    }
    let n = rows.map_or(len, <[u32]>::len);
    assert_eq!(outs.len(), plan.rounds.len(), "one output buffer per round");
    for (out, round) in outs.iter().zip(&plan.rounds) {
        assert_eq!(out.bank(), round.bank, "output buffer bank mismatch");
        assert_eq!(out.len(), n, "output buffer length mismatch");
    }
    if runs_serially(threads, n) {
        massage_range(inputs, rows, prog, 0..n, outs, cancel);
        return MorselCounts::default();
    }
    // Worker `w` massages the rows `w·n/threads..(w+1)·n/threads` of
    // every round.
    let mut parts: Vec<(Range<usize>, Vec<RoundRows<'_>>)> = (0..threads)
        .map(|w| {
            (
                w * n / threads..(w + 1) * n / threads,
                Vec::with_capacity(outs.len()),
            )
        })
        .collect();
    for out in outs.iter_mut() {
        let mut rest = out.rows();
        for (range, part) in parts.iter_mut() {
            let (head, tail) = rest.split_at(range.len());
            part.push(head);
            rest = tail;
        }
    }
    for_each_worker(&mut parts, |(range, part)| {
        massage_range(inputs, rows, prog, range.clone(), part, cancel)
    })
}

/// Massage `inputs` according to `plan`, returning bank-typed keys per
/// round plus the executed program (for `I_FIP` accounting).
pub fn massage(
    inputs: &[&CodeVec],
    specs: &[SortSpec],
    plan: &MassagePlan,
    threads: usize,
) -> (Vec<RoundKeys>, MassageProgram) {
    let n = inputs.first().map_or(0, |c| c.len());
    let mut keys: Vec<RoundKeys> = plan
        .rounds
        .iter()
        .map(|r| match r.bank {
            Bank::B16 => RoundKeys::B16(vec![0u16; n]),
            Bank::B32 => RoundKeys::B32(vec![0u32; n]),
            Bank::B64 => RoundKeys::B64(vec![0u64; n]),
        })
        .collect();
    let prog = MassageProgram::compile(specs, plan);
    massage_rows_into(
        inputs,
        None,
        &prog,
        plan,
        threads,
        &mut keys,
        &CancelToken::none(),
    );
    (keys, prog)
}

/// The inverse of one [`FipStep`]: the step's bit segment of a round
/// key, complemented back when its column descends, at the segment's
/// place in the column's code.
#[derive(Debug, Clone, Copy)]
struct Unstep {
    out_shift: u32,
    mask: u64,
    flip: u64,
    in_shift: u32,
}

impl Unstep {
    fn new(step: &FipStep, descending: bool) -> Unstep {
        let mask = width_mask(step.len);
        Unstep {
            out_shift: step.out_shift,
            mask,
            flip: if descending { mask } else { 0 },
            in_shift: step.in_shift,
        }
    }

    #[inline]
    fn bits(self, key: u64) -> u64 {
        (((key >> self.out_shift) & self.mask) ^ self.flip) << self.in_shift
    }

    /// `dst[i] = bits(src[i])` when `assign`, else `dst[i] |= bits(src[i])`,
    /// in one loop over the round's bank type.
    fn apply(self, src: &RoundKeys, assign: bool, dst: &mut [u64]) {
        #[inline]
        fn run<K: Key>(u: Unstep, src: &[K], assign: bool, dst: &mut [u64]) {
            if assign {
                for (d, &k) in dst.iter_mut().zip(src) {
                    *d = u.bits(k.to_u64());
                }
            } else {
                for (d, &k) in dst.iter_mut().zip(src) {
                    *d |= u.bits(k.to_u64());
                }
            }
        }
        match src {
            RoundKeys::B16(v) => run(self, v, assign, dst),
            RoundKeys::B32(v) => run(self, v, assign, dst),
            RoundKeys::B64(v) => run(self, v, assign, dst),
        }
    }
}

/// Input column `col`'s codes, read back out of `rounds` (the round keys
/// `prog` massaged, sorted or not) into `dst`, which is as long as the
/// rounds: the inverse FIP, one loop per step (Lemma 1 — massaging only
/// moves bits, so every bit of the column is in exactly one round). The
/// first step writes, the others OR in.
pub(crate) fn decode_column_into(
    rounds: &[RoundKeys],
    prog: &MassageProgram,
    col: usize,
    dst: &mut [u64],
) {
    let descending = prog.specs[col].descending;
    let steps = prog.column_steps(col);
    if steps.is_empty() {
        dst.fill(0);
    }
    for (k, step) in steps.iter().enumerate() {
        Unstep::new(step, descending).apply(&rounds[step.out_col], k == 0, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SortSpec;

    fn specs(widths: &[u32]) -> Vec<SortSpec> {
        widths.iter().map(|&w| SortSpec::asc(w)).collect()
    }

    /// Oracle: assemble each row's W-bit key as a u128 (W <= 96 in tests),
    /// then slice it at the output boundaries.
    fn oracle(inputs: &[&CodeVec], sp: &[SortSpec], out_widths: &[u32], row: usize) -> Vec<u64> {
        let mut key: u128 = 0;
        let mut total = 0u32;
        for (c, s) in inputs.iter().zip(sp) {
            let mut v = c.get(row);
            if s.descending {
                v ^= width_mask(s.width);
            }
            key = (key << s.width) | v as u128;
            total += s.width;
        }
        let mut out = Vec::new();
        let mut consumed = 0u32;
        for &w in out_widths {
            consumed += w;
            out.push(((key >> (total - consumed)) as u64) & width_mask(w));
        }
        out
    }

    #[test]
    fn figure6_ex3_program() {
        // P_<<1 for Ex3 (17+33 -> 18+32): three steps, I_FIP = 3.
        let sp = specs(&[17, 33]);
        let plan = MassagePlan::from_widths(&[18, 32]);
        let prog = MassageProgram::compile(&sp, &plan);
        assert_eq!(prog.i_fip(), 3);
        assert_eq!(prog.i_fip(), plan.i_fip(&[17, 33]));
        // Step 1: all 17 bits of col 0 -> round 0, left-shifted by 1.
        assert_eq!(
            prog.steps[0],
            FipStep {
                in_col: 0,
                out_col: 0,
                in_shift: 0,
                len: 17,
                out_shift: 1,
                assigns: true
            }
        );
        // Step 2: top bit of col 1 -> bottom bit of round 0.
        assert_eq!(
            prog.steps[1],
            FipStep {
                in_col: 1,
                out_col: 0,
                in_shift: 32,
                len: 1,
                out_shift: 0,
                assigns: false
            }
        );
        // Step 3: low 32 bits of col 1 -> round 1.
        assert_eq!(
            prog.steps[2],
            FipStep {
                in_col: 1,
                out_col: 1,
                in_shift: 0,
                len: 32,
                out_shift: 0,
                assigns: true
            }
        );
    }

    #[test]
    fn figure6_ex4_program() {
        // P_32x3 for Ex4 (48+48 -> 32+32+32): I_FIP = 4.
        let sp = specs(&[48, 48]);
        let plan = MassagePlan::from_widths(&[32, 32, 32]);
        let prog = MassageProgram::compile(&sp, &plan);
        assert_eq!(prog.i_fip(), 4);
    }

    #[test]
    fn identity_detection() {
        let sp = specs(&[17, 33]);
        let plan = MassagePlan::from_widths(&[17, 33]);
        assert!(MassageProgram::compile(&sp, &plan).is_identity());
        let plan2 = MassagePlan::from_widths(&[18, 32]);
        assert!(!MassageProgram::compile(&sp, &plan2).is_identity());
        // DESC columns are never identity (complement required).
        let spd = vec![SortSpec::asc(17), SortSpec::desc(33)];
        assert!(!MassageProgram::compile(&spd, &plan).is_identity());
    }

    #[test]
    fn massage_matches_oracle_across_plans() {
        let c1 = CodeVec::from_u64s(17, [0u64, 131_071, 42, 99_999]);
        let c2 = CodeVec::from_u64s(33, [1u64 << 32, 0, 8_589_934_591, 12345]);
        let inputs = vec![&c1, &c2];
        for plan_widths in [
            vec![17, 33],
            vec![18, 32],
            vec![50],
            vec![16, 16, 18],
            vec![1; 50],
            vec![25, 25],
        ] {
            let plan = MassagePlan::from_widths(&plan_widths);
            for desc_pattern in [[false, false], [true, false], [false, true], [true, true]] {
                let sp: Vec<SortSpec> = [17u32, 33]
                    .iter()
                    .zip(desc_pattern)
                    .map(|(&w, d)| SortSpec {
                        width: w,
                        descending: d,
                    })
                    .collect();
                let (got, prog) = massage(&inputs, &sp, &plan, 1);
                assert_eq!(prog, MassageProgram::compile(&sp, &plan));
                for row in 0..4 {
                    let want = oracle(&inputs, &sp, &plan_widths, row);
                    let got_row: Vec<u64> = got.iter().map(|c| c.get(row)).collect();
                    assert_eq!(
                        got_row, want,
                        "plan={plan_widths:?} desc={desc_pattern:?} row={row}"
                    );
                }
            }
        }
    }

    #[test]
    fn massage_parallel_matches_serial() {
        let n = 10_000;
        let c1 = CodeVec::from_u64s(20, (0..n).map(|i| (i * 7919) % (1 << 20)));
        let c2 = CodeVec::from_u64s(40, (0..n).map(|i| (i * 104_729) % (1u64 << 40)));
        let sp = specs(&[20, 40]);
        let plan = MassagePlan::from_widths(&[24, 36]);
        let (a, _) = massage(&[&c1, &c2], &sp, &plan, 1);
        let (b, _) = massage(&[&c1, &c2], &sp, &plan, 4);
        assert_eq!(a, b);

        // Through a row list (every third row, backwards), serially and in
        // parallel, into buffers that hold stale all-ones keys: row `i` of
        // each round is row `list[i]` of the above.
        let list: Vec<u32> = (0..n as u32).rev().step_by(3).collect();
        for threads in [1, 4] {
            let mut outs: Vec<RoundKeys> = plan
                .rounds
                .iter()
                .map(|r| match r.bank {
                    Bank::B16 => RoundKeys::B16(vec![u16::MAX; list.len()]),
                    Bank::B32 => RoundKeys::B32(vec![u32::MAX; list.len()]),
                    Bank::B64 => RoundKeys::B64(vec![u64::MAX; list.len()]),
                })
                .collect();
            let inputs = [&c1, &c2];
            let cancel = CancelToken::none();
            massage_rows_into(
                &inputs,
                Some(&list),
                &MassageProgram::compile(&sp, &plan),
                &plan,
                threads,
                &mut outs,
                &cancel,
            );
            for (got, want) in outs.iter().zip(&a) {
                for (i, &r) in list.iter().enumerate() {
                    assert_eq!(got.get(i), want.get(r as usize), "t{threads} row {i}");
                }
            }
        }
    }

    /// Lemma 1 read backwards: massaging only moves bits, so decoding
    /// each column from the round keys returns its input codes exactly —
    /// for any widths 1–64, either direction, and any valid plan: splits,
    /// stitches and borrows alike, each round in any bank that holds it.
    #[test]
    fn decoding_massaged_rounds_returns_the_input_codes() {
        let mut rng = mcs_test_support::Rng::seed_from_u64(0x1E_3A1);
        for case in 0..300 {
            let cols = rng.gen_range(1..=4usize);
            let sp: Vec<SortSpec> = (0..cols)
                .map(|_| SortSpec {
                    width: rng.gen_range(1..=64u32),
                    descending: rng.gen_bool(0.5),
                })
                .collect();
            let total: u32 = sp.iter().map(|s| s.width).sum();
            // A random composition of the key into rounds of 1–64 bits.
            let mut widths = Vec::new();
            let mut left = total;
            while left > 0 {
                let w = rng.gen_range(1..=left.min(64));
                widths.push(w);
                left -= w;
            }
            let plan = MassagePlan::new(
                widths
                    .iter()
                    .map(|&width| {
                        let fits: Vec<Bank> =
                            Bank::ALL.into_iter().filter(|b| b.holds(width)).collect();
                        crate::plan::Round {
                            width,
                            bank: *rng.choose(&fits),
                        }
                    })
                    .collect(),
            );
            assert!(plan.validate(total).is_ok(), "a composition of the key");
            let n = rng.gen_range(0..200usize);
            let codes: Vec<CodeVec> = sp
                .iter()
                .map(|s| {
                    let vals: Vec<u64> = (0..n)
                        .map(|_| rng.next_u64() & width_mask(s.width))
                        .collect();
                    CodeVec::from_u64s(s.width, vals)
                })
                .collect();
            let inputs: Vec<&CodeVec> = codes.iter().collect();
            let (rounds, prog) = massage(&inputs, &sp, &plan, 1);
            for (c, col) in codes.iter().enumerate() {
                let want: Vec<u64> = (0..n).map(|r| col.get(r)).collect();
                let label = format!("case {case}: specs {sp:?} rounds {widths:?} col {c}");
                let mut into = vec![u64::MAX; n];
                decode_column_into(&rounds, &prog, c, &mut into);
                assert_eq!(into, want, "{label}");
            }
        }
    }

    #[test]
    fn figure2b_stitch_example() {
        // nation_name (10-bit) stitched with ship_date (17-bit): the new
        // column equals (nation << 17) | ship_date.
        let nation = CodeVec::from_u64s(10, [1u64, 1, 2]);
        let ship = CodeVec::from_u64s(17, [601u64, 1201, 301]);
        let sp = specs(&[10, 17]);
        let plan = MassagePlan::from_widths(&[27]);
        let (keys, prog) = massage(&[&nation, &ship], &sp, &plan, 1);
        assert_eq!(prog.i_fip(), 2);
        assert_eq!(keys.len(), 1);
        for (i, (&n, &s)) in [1u64, 1, 2].iter().zip(&[601u64, 1201, 301]).enumerate() {
            assert_eq!(keys[0].get(i), (n << 17) | s);
        }
    }

    #[test]
    fn width_64_masking() {
        assert_eq!(width_mask(64), u64::MAX);
        assert_eq!(width_mask(1), 1);
        let c = CodeVec::from_u64s(64, [u64::MAX, 0, 42]);
        let sp = vec![SortSpec::desc(64)];
        let plan = MassagePlan::from_widths(&[64]);
        let (out, _) = massage(&[&c], &sp, &plan, 1);
        assert_eq!(out[0], RoundKeys::B64(vec![0, u64::MAX, !42]));
    }

    #[test]
    #[should_panic(expected = "output buffer bank mismatch")]
    fn massage_rows_into_rejects_wrong_bank() {
        let c1 = CodeVec::from_u64s(20, [1u64, 2, 3]);
        let sp = specs(&[20]);
        let plan = MassagePlan::from_widths(&[20]); // wants B32
        let prog = MassageProgram::compile(&sp, &plan);
        let mut outs = vec![RoundKeys::B16(vec![0u16; 3])];
        let cancel = CancelToken::none();
        massage_rows_into(&[&c1], None, &prog, &plan, 1, &mut outs, &cancel);
    }

    #[test]
    fn round_keys_accessors() {
        let rk = RoundKeys::B32(vec![1, 65_535, 70_000]);
        assert_eq!(rk.bank(), Bank::B32);
        assert_eq!(rk.get(2), 70_000);
        assert_eq!(rk.len(), 3);
    }
}
