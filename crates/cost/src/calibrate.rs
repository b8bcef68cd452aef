//! Calibration of the cost-model constants from controlled
//! micro-experiments (§4), following the paper's linear-system method:
//! rather than micro-benchmarking each constant in isolation, several
//! instantiations of the cost equations are measured and solved (or
//! least-squares-fitted) for the unknowns.

use std::time::Instant;

use mcs_columnar::CodeVec;
use mcs_core::{massage, Bank, GroupBounds, MassagePlan, SortConfig, SortSpec};
use mcs_simd_sort::{
    kernel_for, sort_pairs_in_groups, sort_pairs_with, SizeKernel, SortKernel, WorkerScratch,
    INSERTION_MAX_ROWS, PACKED_MAX_ROWS,
};
use mcs_test_support::Rng;

use crate::linalg::{least_squares_nonneg, solve};
use crate::machine::MachineSpec;
use crate::model::{BankConstants, CostConstants, CostModel};

/// Calibration tuning.
#[derive(Debug, Clone)]
pub struct CalibrationOptions {
    /// Rows for the sort/massage/scan experiments (`N_cal`). The paper
    /// uses 100× LLC; we default to 2^21 rows to keep calibration under a
    /// minute on one core — constants are per-row, so the scale cancels.
    pub rows: usize,
    /// Target cache-hit ratios for the two lookup instantiations of Eq. 3.
    pub lookup_ratios: (f64, f64),
    /// Group counts for the sort regression (each becomes one equation).
    pub group_counts: Vec<usize>,
    /// RNG seed (calibration is deterministic given the machine).
    pub seed: u64,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            rows: 1 << 21,
            lookup_ratios: (0.9, 0.3),
            group_counts: vec![1, 4, 64, 1024, 16 * 1024, 128 * 1024],
            seed: 0xC0FFEE,
        }
    }
}

impl CalibrationOptions {
    /// Tiny, fast options for tests.
    pub fn quick() -> Self {
        CalibrationOptions {
            rows: 1 << 15,
            lookup_ratios: (0.9, 0.5),
            group_counts: vec![1, 16, 256],
            seed: 7,
        }
    }
}

/// Run all calibration experiments and return a ready [`CostModel`].
pub fn calibrate(machine: MachineSpec, opts: &CalibrationOptions) -> CostModel {
    let (c_cache, c_mem) = calibrate_lookup(&machine, opts);
    let c_massage = calibrate_massage(opts);
    let c_scan = calibrate_scan(opts);

    // Per-bank sort constants share C_overhead; calibrate it on the
    // 32-bit bank (most common) and reuse.
    let mut consts = CostConstants::defaults();
    consts.c_cache = c_cache;
    consts.c_mem = c_mem;
    consts.c_massage = c_massage;
    consts.c_scan = c_scan;

    let model_seed = CostModel {
        consts: consts.clone(),
        machine: machine.clone(),
        kernel: SortKernel::Auto,
    };
    let (b16, ov16) = calibrate_sort_bank::<u16>(&model_seed, Bank::B16, opts);
    let (b32, ov32) = calibrate_sort_bank::<u32>(&model_seed, Bank::B32, opts);
    let (b64, ov64) = calibrate_sort_bank::<u64>(&model_seed, Bank::B64, opts);
    consts.b16 = b16;
    consts.b32 = b32;
    consts.b64 = b64;
    // One shared invocation overhead: average of the three fits.
    consts.c_overhead = (ov16 + ov32 + ov64) / 3.0;

    // The size-driven kernels: bank-blind terms on the 32-bit bank.
    let (c_insertion, c_insertion_row) = calibrate_insertion(opts);
    consts.c_insertion = c_insertion;
    consts.c_insertion_row = c_insertion_row;
    let fixed = [
        calibrate_auto_bank::<u16>(&model_seed, &mut consts.b16, Bank::B16, opts),
        calibrate_auto_bank::<u32>(&model_seed, &mut consts.b32, Bank::B32, opts),
        calibrate_auto_bank::<u64>(&model_seed, &mut consts.b64, Bank::B64, opts),
    ];
    consts.c_radix_fixed = fixed.iter().sum::<f64>() / fixed.len() as f64;

    CostModel {
        consts,
        machine,
        kernel: SortKernel::Auto,
    }
}

/// Lookup calibration: two random-gather runs at different working-set
/// sizes, solved as a 2×2 linear system (Eq. 3 instantiated twice).
fn calibrate_lookup(machine: &MachineSpec, opts: &CalibrationOptions) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(opts.seed);
    let elem = 4usize; // 32-bit codes: size(w) = 4
    let mut rows_a = Vec::new();
    let mut rhs = Vec::new();
    for &ratio in &[opts.lookup_ratios.0, opts.lookup_ratios.1] {
        let n = ((machine.llc_bytes as f64 / ratio) / elem as f64) as usize;
        let data: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates for a random access pattern.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            oids.swap(i, j);
        }
        let t = Instant::now();
        let mut acc = 0u64;
        for &o in &oids {
            acc = acc.wrapping_add(data[o as usize] as u64);
        }
        let per_row = t.elapsed().as_nanos() as f64 / n as f64;
        std::hint::black_box(acc);
        let h = (machine.llc_bytes as f64 / (n * elem) as f64).min(1.0);
        rows_a.push(vec![h, 1.0 - h]);
        rhs.push(per_row);
    }
    match solve(&rows_a, &rhs) {
        Some(x) if x[0] > 0.0 && x[1] > 0.0 => (x[0], x[1]),
        _ => {
            let d = CostConstants::defaults();
            (d.c_cache, d.c_mem)
        }
    }
}

/// Massage calibration: time the Ex3 `P_≪1` program (paper footnote 7)
/// and divide by `N_cal · I_FIP`.
fn calibrate_massage(opts: &CalibrationOptions) -> f64 {
    let n = opts.rows;
    let mut rng = Rng::seed_from_u64(opts.seed ^ 1);
    let c1 = CodeVec::from_u64s(17, (0..n).map(|_| rng.gen_range(0..(1u64 << 17))));
    let c2 = CodeVec::from_u64s(33, (0..n).map(|_| rng.gen_range(0..(1u64 << 33))));
    let specs = [SortSpec::asc(17), SortSpec::asc(33)];
    let plan = MassagePlan::from_widths(&[18, 32]);
    let t = Instant::now();
    let (keys, prog) = massage(&[&c1, &c2], &specs, &plan, 1);
    let elapsed = t.elapsed().as_nanos() as f64;
    std::hint::black_box(&keys);
    elapsed / (n as f64 * prog.i_fip() as f64)
}

/// Scan calibration: group-boundary extraction over a sorted column.
fn calibrate_scan(opts: &CalibrationOptions) -> f64 {
    let n = opts.rows;
    let mut rng = Rng::seed_from_u64(opts.seed ^ 2);
    let mut keys: Vec<u32> = (0..n)
        .map(|_| rng.gen_range(0..(n as u32 / 4).max(2)))
        .collect();
    keys.sort_unstable();
    let t = Instant::now();
    let g = GroupBounds::whole(n).refine_by(&keys);
    let elapsed = t.elapsed().as_nanos() as f64;
    std::hint::black_box(g.num_groups());
    elapsed / n as f64
}

/// Sort calibration for one bank: segmented sorts at several group
/// counts, least-squares over
/// `T = C_ov·n_sort + C_sn·codes + C_icm·codes·p_ic + C_ocm·codes·p_oc`.
/// Returns the bank constants and the fitted `C_overhead`.
fn calibrate_sort_bank<K>(
    model: &CostModel,
    bank: Bank,
    opts: &CalibrationOptions,
) -> (BankConstants, f64)
where
    K: mcs_simd_sort::SortableKey,
{
    let n = opts.rows;
    let mut rng = Rng::seed_from_u64(opts.seed ^ bank.bits() as u64);
    let base_keys: Vec<K> = (0..n).map(|_| K::from_u64(rng.gen())).collect();
    let cfg = SortConfig {
        kernel: SortKernel::MergeSort,
        ..SortConfig::default()
    };

    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut scratch = WorkerScratch::new();
    for &groups in &opts.group_counts {
        let groups = groups.min(n / 2).max(1);
        // Equal-size groups over the row range.
        let mut offsets: Vec<u32> = (0..=groups)
            .map(|g| ((g as u64 * n as u64) / groups as u64) as u32)
            .collect();
        offsets.dedup();
        let bounds = GroupBounds::from_offsets(offsets);
        let mut keys = base_keys.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        let t = Instant::now();
        let stats = sort_pairs_in_groups(&mut keys, &mut oids, &bounds, 1, &cfg, &mut scratch)
            .expect("the serial path spawns no worker");
        let elapsed = t.elapsed().as_nanos() as f64;
        std::hint::black_box(&keys[0]);
        let avg = stats.codes_sorted as f64 / stats.invocations.max(1) as f64;
        let p_ic = model.in_cache_passes(avg, bank);
        let p_oc = model.merge_passes(avg, bank);
        let codes = stats.codes_sorted as f64;
        a.push(vec![
            stats.invocations as f64,
            codes,
            codes * p_ic,
            codes * p_oc,
        ]);
        b.push(elapsed);
    }
    // One full sort too (groups = 1 covered above if in group_counts).
    match least_squares_nonneg(&a, &b) {
        Some(x) => (
            BankConstants {
                c_sort_network: x[1].max(0.05),
                c_in_cache_merge: x[2].max(0.05),
                c_out_of_cache_merge: x[3].max(0.05),
                ..*model.consts.bank(bank)
            },
            x[0].max(100.0),
        ),
        None => {
            // Degenerate measurement (e.g. too few configs): fall back to
            // a single full-sort estimate for the linear term.
            let mut keys = base_keys.clone();
            let mut oids: Vec<u32> = (0..n as u32).collect();
            let t = Instant::now();
            sort_pairs_with(&mut keys, &mut oids, &cfg);
            let per = t.elapsed().as_nanos() as f64 / n as f64;
            let d = CostConstants::defaults();
            let mut bc = *d.bank(bank);
            bc.c_sort_network = per / 3.0;
            (bc, d.c_overhead)
        }
    }
}

/// Wall time (ns) of one default-config ([`SortKernel::Auto`]) segmented
/// sort of `keys` cut into whole groups of `len` rows, and the rows it
/// sorted. The fastest of three runs: calibration wants the kernel's
/// cost, not the machine's noise.
fn time_auto_groups<K: mcs_simd_sort::SortableKey>(keys: &[K], len: usize) -> (f64, f64) {
    let n = keys.len() / len * len;
    let bounds = GroupBounds::from_offsets((0..=n / len).map(|g| (g * len) as u32).collect());
    let cfg = SortConfig::default();
    let mut scratch = WorkerScratch::new();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut k = keys[..n].to_vec();
        let mut o: Vec<u32> = (0..n as u32).collect();
        let t = Instant::now();
        sort_pairs_in_groups(&mut k, &mut o, &bounds, 1, &cfg, &mut scratch)
            .expect("the serial path spawns no worker");
        best = best.min(t.elapsed().as_nanos() as f64);
        std::hint::black_box(&k);
    }
    (best, n as f64)
}

/// Insertion calibration: groups of 4 and of [`INSERTION_MAX_ROWS`] rows,
/// solved as a 2×2 system for the quadratic and the per-row constant.
fn calibrate_insertion(opts: &CalibrationOptions) -> (f64, f64) {
    let mut rng = Rng::seed_from_u64(opts.seed ^ 3);
    let keys: Vec<u32> = (0..opts.rows).map(|_| rng.gen()).collect();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for len in [4usize, INSERTION_MAX_ROWS] {
        debug_assert_eq!(kernel_for(len), SizeKernel::Insertion);
        let (ns, codes) = time_auto_groups(&keys, len);
        a.push(vec![codes * len as f64, codes]);
        b.push(ns);
    }
    match solve(&a, &b) {
        Some(x) if x[0] > 0.0 && x[1] > 0.0 => (x[0], x[1]),
        _ => {
            let d = CostConstants::defaults();
            (d.c_insertion, d.c_insertion_row)
        }
    }
}

/// Packed-word and radix calibration for one bank, written into `bc`;
/// returns the bank's fit of the per-pass fixed cost.
///
/// * packed: groups of [`PACKED_MAX_ROWS`] rows, `T = c · codes · log2 n`;
/// * radix: full-width random keys, so every key byte is a live pass —
///   groups of 512 and of 8192 rows (both L2-resident) solved as a 2×2
///   system for the per-code and the fixed cost of a pass, then one sort
///   of the whole input for the out-of-cache rate.
fn calibrate_auto_bank<K>(
    model: &CostModel,
    bc: &mut BankConstants,
    bank: Bank,
    opts: &CalibrationOptions,
) -> f64
where
    K: mcs_simd_sort::SortableKey,
{
    let mut rng = Rng::seed_from_u64(opts.seed ^ (bank.bits() as u64) << 8);
    let keys: Vec<K> = (0..opts.rows).map(|_| K::from_u64(rng.gen())).collect();
    let defaults = CostConstants::defaults();

    let (ns, codes) = time_auto_groups(&keys, PACKED_MAX_ROWS);
    bc.c_packed = ns / (codes * (PACKED_MAX_ROWS as f64).log2());

    let passes = f64::from(bank.bits() / 8);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for len in [512usize, 8192] {
        let (ns, codes) = time_auto_groups(&keys, len.min(keys.len()));
        a.push(vec![passes * codes, passes * codes / len as f64]);
        b.push(ns);
    }
    let fixed = match solve(&a, &b) {
        Some(x) if x[0] > 0.0 && x[1] > 0.0 => {
            bc.c_radix_pass = x[0];
            x[1]
        }
        _ => {
            // Degenerate fit: charge everything to the per-code term.
            bc.c_radix_pass = b[1] / a[1][0];
            defaults.c_radix_fixed
        }
    };
    bc.c_radix_pass_mem = if keys.len() as f64 > model.machine.in_cache_run_codes(bank.bits()) {
        let (ns, codes) = time_auto_groups(&keys, keys.len());
        (ns / (passes * codes)).max(bc.c_radix_pass)
    } else {
        // Calibration input fits the cache: keep the default ratio.
        let d = defaults.bank(bank);
        bc.c_radix_pass * d.c_radix_pass_mem / d.c_radix_pass
    };
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_is_sane() {
        let model = calibrate(MachineSpec::detect(), &CalibrationOptions::quick());
        let c = &model.consts;
        assert!(
            c.c_cache > 0.0 && c.c_cache < 1000.0,
            "c_cache={}",
            c.c_cache
        );
        assert!(c.c_mem > 0.0, "c_mem={}", c.c_mem);
        assert!(c.c_massage > 0.0 && c.c_massage < 1000.0);
        assert!(c.c_scan > 0.0 && c.c_scan < 1000.0);
        assert!(c.c_overhead >= 100.0);
        assert!(c.c_insertion > 0.0 && c.c_insertion_row > 0.0);
        assert!(c.c_radix_fixed > 0.0);
        for bc in [c.b16, c.b32, c.b64] {
            assert!(bc.c_sort_network > 0.0);
            assert!(bc.c_packed > 0.0 && bc.c_packed < 1000.0);
            assert!(bc.c_radix_pass > 0.0 && bc.c_radix_pass < 1000.0);
            assert!(bc.c_radix_pass_mem >= bc.c_radix_pass);
        }
        assert_eq!(model.kernel, SortKernel::Auto);
    }

    #[test]
    fn calibrated_model_predicts_full_sort_within_factor() {
        // The model should predict a full 32-bit sort within ~3x at the
        // calibration scale (MRE in the paper is 0.36-0.57).
        let opts = CalibrationOptions {
            rows: 1 << 17,
            group_counts: vec![1, 8, 128, 4096],
            ..CalibrationOptions::quick()
        };
        let model = calibrate(MachineSpec::detect(), &opts);
        let n = 1usize << 17;
        let mut rng = Rng::seed_from_u64(42);
        // Both kernels: the calibrated model is an `Auto` model, and its
        // merge-sort constants must still price `SortKernel::MergeSort`.
        for kernel in [SortKernel::Auto, SortKernel::MergeSort] {
            let cfg = SortConfig {
                kernel,
                ..SortConfig::default()
            };
            let model = CostModel {
                kernel,
                ..model.clone()
            };
            let mut keys: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let mut oids: Vec<u32> = (0..n as u32).collect();
            let t = Instant::now();
            sort_pairs_with(&mut keys, &mut oids, &cfg);
            let actual = t.elapsed().as_nanos() as f64;
            let predicted = model.t_sort_invocation(n as f64, Bank::B32, 32);
            let ratio = predicted / actual;
            assert!(
                (0.2..5.0).contains(&ratio),
                "{kernel:?}: predicted {predicted:.0} actual {actual:.0} ratio {ratio:.2}"
            );
        }
    }
}
