//! The code-massaging kernel: the four-instruction program (FIP) of the
//! paper's Figure 6.
//!
//! Massaging re-partitions the concatenated `W`-bit sort key. Each
//! maximal bit segment that lies in exactly one (input column, output
//! round) pair becomes one [`FipStep`] — shift right, mask, OR, shift
//! left — and the number of steps equals the paper's
//! `I_FIP = |prefix(in) ∪ prefix(out)|`. Execution is one sequential,
//! branch-free pass per step, massaging all rows of that segment;
//! `DESC` columns are complemented on the fly (Figure 5's extra step).

use crate::plan::{MassagePlan, SortSpec};
use mcs_cancel::CancelToken;
use mcs_columnar::CodeVec;
use mcs_simd_sort::{for_each_chunk, Bank, Key, MorselCounts};

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

/// Run one FIP step with a bank-native destination: OR the step's bit
/// segment of every row directly into `dst` in the bank's physical type.
///
/// `bits << out_shift` always fits the bank because the round width is
/// bounded by the bank width (enforced by plan validation), so the
/// narrowing `K::from_u64` is lossless. Returns the step's morsel
/// scheduler counters (zero on the serial path).
fn execute_step_into<K: Key>(
    src: &CodeVec,
    step: &FipStep,
    comp_mask: u64,
    dst: &mut [K],
    threads: usize,
) -> MorselCounts {
    let seg_mask = width_mask(step.len);
    let (_, counts) = for_each_chunk(dst, threads, |start, chunk| {
        for (r, d) in (start..).zip(chunk) {
            let code = src.get(r) ^ comp_mask;
            let bits = (code >> step.in_shift) & seg_mask;
            *d = K::from_u64(d.to_u64() | (bits << step.out_shift));
        }
    });
    counts
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

/// Massage `inputs` directly into caller-provided bank-native buffers —
/// the allocation-free core of [`massage`], used by
/// [`crate::ExecArena`]-backed execution.
///
/// `outs` must hold one zero-filled [`RoundKeys`] per plan round, each
/// of the round's bank and of the input row count; every FIP step ORs
/// its bit segment straight into the destination bank type, so no
/// intermediate wide `u64` vectors are materialized.
///
/// `cancel` is polled before every FIP step (each is one full O(n) pass
/// over a column segment). A fired token abandons the remaining steps,
/// leaving partially massaged round buffers — the caller must observe the
/// token and discard them. The compiled program (for `I_FIP` accounting)
/// is returned either way, along with the morsel scheduler counters
/// summed over the executed steps (all zero when the steps ran serially).
pub fn massage_into(
    inputs: &[&CodeVec],
    specs: &[SortSpec],
    plan: &MassagePlan,
    threads: usize,
    outs: &mut [RoundKeys],
    cancel: &CancelToken,
) -> (MassageProgram, MorselCounts) {
    assert_eq!(inputs.len(), specs.len());
    let n = inputs.first().map_or(0, |c| c.len());
    for c in inputs {
        assert_eq!(c.len(), n, "input column length mismatch");
    }
    assert_eq!(outs.len(), plan.rounds.len(), "one output buffer per round");
    for (out, round) in outs.iter().zip(&plan.rounds) {
        assert_eq!(out.bank(), round.bank, "output buffer bank mismatch");
        assert_eq!(out.len(), n, "output buffer length mismatch");
    }
    let prog = MassageProgram::compile(specs, plan);
    let mut morsels = MorselCounts::default();
    for step in &prog.steps {
        if cancel.check().is_err() {
            break;
        }
        let src = inputs[step.in_col];
        let spec = prog.specs[step.in_col];
        let comp_mask = if spec.descending {
            width_mask(spec.width)
        } else {
            0
        };
        morsels.add(match &mut outs[step.out_col] {
            RoundKeys::B16(dst) => execute_step_into::<u16>(src, step, comp_mask, dst, threads),
            RoundKeys::B32(dst) => execute_step_into::<u32>(src, step, comp_mask, dst, threads),
            RoundKeys::B64(dst) => execute_step_into::<u64>(src, step, comp_mask, dst, threads),
        });
    }
    (prog, morsels)
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
    let (prog, _) = massage_into(
        inputs,
        specs,
        plan,
        threads,
        &mut keys,
        &CancelToken::none(),
    );
    (keys, prog)
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
                out_shift: 1
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
                out_shift: 0
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
                out_shift: 0
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
    fn massage_into_rejects_wrong_bank() {
        let c1 = CodeVec::from_u64s(20, [1u64, 2, 3]);
        let sp = specs(&[20]);
        let plan = MassagePlan::from_widths(&[20]); // wants B32
        let mut outs = vec![RoundKeys::B16(vec![0u16; 3])];
        massage_into(&[&c1], &sp, &plan, 1, &mut outs, &CancelToken::none());
    }

    #[test]
    fn round_keys_accessors() {
        let rk = RoundKeys::B32(vec![1, 65_535, 70_000]);
        assert_eq!(rk.bank(), Bank::B32);
        assert_eq!(rk.get(2), 70_000);
        assert_eq!(rk.len(), 3);
    }
}
