//! The architecture-aware cost model (§4): Equations 1–9 with calibrated
//! constants, estimating `T_mcs`, the CPU time of a multi-column sort
//! under a given massage plan.

use mcs_columnar::size_of_width;
use mcs_core::{Bank, MassagePlan, Round, SortSpec};
use mcs_simd_sort::radix::passes_for_width;
use mcs_simd_sort::{kernel_for, SizeKernel, SortKernel, MERGE_FANOUT};

use crate::estimate::{estimate_groups, GroupEstimate, KeyColumnStats};
use crate::machine::MachineSpec;

/// Per-bank sort-kernel constants (ns per code): the three merge-sort
/// terms of Eq. 5 and the terms of the size-driven kernels.
///
/// Deviation from the paper, for identifiability: Eq. 7 folds all
/// in-cache merge passes into one constant, which makes
/// `C_sort-network` and `C_in-cache-merge` share the coefficient `N` in
/// the calibration linear system (singular). We keep
/// `c_in_cache_merge` **per binary merge pass** — the number of in-cache
/// passes varies with the sorted size, so all four constants are
/// identifiable from the same experiment the paper describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankConstants {
    /// `C^b_sort-network` (Eq. 6): in-register sorting per code.
    pub c_sort_network: f64,
    /// `C^b_in-cache-merge` (Eq. 7, per-pass form): one binary in-cache
    /// merge pass per code.
    pub c_in_cache_merge: f64,
    /// `C^b_out-of-cache-merge` (Eq. 8): one out-of-cache loser-tree pass
    /// per code.
    pub c_out_of_cache_merge: f64,
    /// Packed-word kernel: per code per `log2 n` of its group.
    pub c_packed: f64,
    /// Radix kernel: one scatter pass per code (with that pass's share of
    /// the histogram read) while source and destination fit the L2.
    pub c_radix_pass: f64,
    /// Radix kernel: one scatter pass per code once they do not.
    pub c_radix_pass_mem: f64,
}

/// All calibrated constants of the model (ns; the paper uses cycles — a
/// constant factor at fixed frequency).
#[derive(Debug, Clone, PartialEq)]
pub struct CostConstants {
    /// `C_cache`: latency of a data item in cache (Eq. 3).
    pub c_cache: f64,
    /// `C_mem`: latency of a data item in memory (Eq. 3).
    pub c_mem: f64,
    /// `C_massage`: one four-instruction program over one row (Eq. 4).
    pub c_massage: f64,
    /// `C_scan`: sequential scan + group fill, per row (Eq. 9).
    pub c_scan: f64,
    /// `C_overhead`: merge-sort invocation overhead (Eq. 2).
    pub c_overhead: f64,
    /// Insertion kernel: per `n²` of a group of `n` rows.
    pub c_insertion: f64,
    /// Insertion kernel: per row (the segmented loop's dispatch and the
    /// final move of each row).
    pub c_insertion_row: f64,
    /// Radix kernel: fixed cost of one scatter pass (the 256-entry prefix
    /// sum and that digit's share of the histogram set-up).
    pub c_radix_fixed: f64,
    /// Per-bank constants, indexed 16/32/64.
    pub b16: BankConstants,
    /// 32-bit bank constants.
    pub b32: BankConstants,
    /// 64-bit bank constants.
    pub b64: BankConstants,
}

impl CostConstants {
    /// Defaults measured on the development machine (a 2-core x86-64 VM
    /// with AVX2, 2 MiB L2, 32 MiB LLC) by [`crate::calibrate::calibrate`]
    /// at its default options; use `calibrate` for real rankings
    /// elsewhere. The three Eq. 5 merge-sort constants per bank are the
    /// exception: their least-squares fit is ill-conditioned on this
    /// machine, so they stay at hand-measured ballparks that keep the
    /// paper's plan rankings (Figures 3 and 4); the out-of-cache ones
    /// are 15 / 15 / 20 ballparks × 0.85, a factor from a time when the
    /// loser tree carried offset-value codes. It was never measured, and
    /// it stays until the constants are refit (ROADMAP item 10) so that
    /// no plan moves before then.
    pub fn defaults() -> CostConstants {
        CostConstants {
            c_cache: 8.9,
            c_mem: 22.0,
            c_massage: 3.7,
            c_scan: 3.5,
            c_overhead: 150.0,
            c_insertion: 0.43,
            c_insertion_row: 4.2,
            c_radix_fixed: 65.0,
            b16: BankConstants {
                c_sort_network: 1.0,
                c_in_cache_merge: 1.0,
                c_out_of_cache_merge: 12.75,
                c_packed: 1.12,
                c_radix_pass: 1.54,
                c_radix_pass_mem: 3.4,
            },
            b32: BankConstants {
                c_sort_network: 1.6,
                c_in_cache_merge: 3.2,
                c_out_of_cache_merge: 12.75,
                c_packed: 1.15,
                c_radix_pass: 1.75,
                c_radix_pass_mem: 3.6,
            },
            b64: BankConstants {
                c_sort_network: 4.0,
                c_in_cache_merge: 12.0,
                c_out_of_cache_merge: 17.0,
                c_packed: 1.66,
                c_radix_pass: 1.75,
                c_radix_pass_mem: 3.4,
            },
        }
    }

    /// Constants for a bank.
    pub fn bank(&self, b: Bank) -> &BankConstants {
        match b {
            Bank::B16 => &self.b16,
            Bank::B32 => &self.b32,
            Bank::B64 => &self.b64,
        }
    }
}

/// One multi-column sorting problem instance, as the optimizer sees it.
#[derive(Debug, Clone)]
pub struct SortInstance {
    /// Number of rows `N`.
    pub rows: usize,
    /// Sort columns in order (widths + directions).
    pub specs: Vec<SortSpec>,
    /// Per-column statistics, aligned with `specs`.
    pub stats: Vec<KeyColumnStats>,
    /// Whether the final grouping must be produced (GROUP BY /
    /// PARTITION BY, or any non-final round).
    pub want_final_groups: bool,
}

impl SortInstance {
    /// Uniform-distribution instance: `ndv` distinct values per column.
    pub fn uniform(rows: usize, widths_ndv: &[(u32, f64)]) -> SortInstance {
        SortInstance {
            rows,
            specs: widths_ndv.iter().map(|&(w, _)| SortSpec::asc(w)).collect(),
            stats: widths_ndv
                .iter()
                .map(|&(w, d)| KeyColumnStats::uniform(w, d))
                .collect(),
            want_final_groups: true,
        }
    }

    /// Total key width `W`.
    pub fn total_width(&self) -> u32 {
        self.specs.iter().map(|s| s.width).sum()
    }

    /// The column-at-a-time plan `P_0` for this instance.
    pub fn p0(&self) -> MassagePlan {
        MassagePlan::column_at_a_time(&self.specs)
    }
}

/// Cost breakdown of one plan (ns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostBreakdown {
    /// `T_massage`.
    pub massage: f64,
    /// Σ `T_lookup` over rounds.
    pub lookup: f64,
    /// Σ `T_sort` over rounds.
    pub sort: f64,
    /// Σ `T_scan` over rounds.
    pub scan: f64,
}

impl CostBreakdown {
    /// `T_mcs` — the total.
    pub fn total(&self) -> f64 {
        self.massage + self.lookup + self.sort + self.scan
    }
}

/// Predicted cost of one execution round (ns) — the per-round view the
/// `EXPLAIN` report lines up against measured [`mcs_core::RoundStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundCost {
    /// Bits sorted this round.
    pub width: u32,
    /// SIMD bank of the round.
    pub bank: Bank,
    /// Predicted `T_lookup` (0 for the first round).
    pub lookup: f64,
    /// Predicted `T_sort`.
    pub sort: f64,
    /// Predicted `T_scan` (0 when the final scan is skipped).
    pub scan: f64,
    /// Estimated number of groups entering the round (1 for round 1).
    pub est_groups_in: f64,
}

impl RoundCost {
    /// Predicted round total.
    pub fn total(&self) -> f64 {
        self.lookup + self.sort + self.scan
    }
}

/// Per-round predicted cost of a whole plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCost {
    /// Predicted `T_massage` (0 for identity plans on ascending keys).
    pub massage: f64,
    /// One entry per plan round, in execution order.
    pub rounds: Vec<RoundCost>,
}

impl PlanCost {
    /// `T_mcs` — the plan total.
    pub fn total(&self) -> f64 {
        self.massage + self.rounds.iter().map(RoundCost::total).sum::<f64>()
    }

    /// Collapse to the four-phase [`CostBreakdown`].
    pub fn breakdown(&self) -> CostBreakdown {
        CostBreakdown {
            massage: self.massage,
            lookup: self.rounds.iter().map(|r| r.lookup).sum(),
            sort: self.rounds.iter().map(|r| r.sort).sum(),
            scan: self.rounds.iter().map(|r| r.scan).sum(),
        }
    }
}

/// The calibrated cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Calibrated constants.
    pub consts: CostConstants,
    /// Machine parameters.
    pub machine: MachineSpec,
    /// Which sort family the executor runs — must mirror the executor's
    /// `SortConfig::kernel` so predictions line up with measurements. Under
    /// [`SortKernel::Auto`] (the default of both) a sort is priced as the
    /// kernel the size dispatch will run on it; under
    /// [`SortKernel::MergeSort`] by the paper's Eq. 5.
    pub kernel: SortKernel,
}

impl CostModel {
    /// Model with default constants and a detected machine (fast; for
    /// tests and examples — benchmarks should calibrate).
    pub fn with_defaults() -> CostModel {
        CostModel {
            consts: CostConstants::defaults(),
            machine: MachineSpec::detect(),
            kernel: SortKernel::Auto,
        }
    }

    /// `T_lookup` (Eq. 3): `N` random accesses into a `width`-bit column.
    pub fn t_lookup(&self, n: usize, width: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let footprint = (n * size_of_width(width)) as f64;
        let h = (self.machine.llc_bytes as f64 / footprint).min(1.0);
        n as f64 * (self.consts.c_cache * h + self.consts.c_mem * (1.0 - h))
    }

    /// `T_massage` (Eq. 4).
    pub fn t_massage(&self, n: usize, i_fip: usize) -> f64 {
        i_fip as f64 * self.consts.c_massage * n as f64
    }

    /// `T_scan` (Eq. 9).
    pub fn t_scan(&self, n: usize) -> f64 {
        self.consts.c_scan * n as f64
    }

    /// Out-of-cache merge passes for `n` codes in bank `b`
    /// (`⌈log_F(n·(b/8)/0.5·M_L2)⌉`, Eq. 8; 0 when the data fits), with
    /// `F` the sorter's [`MERGE_FANOUT`].
    pub fn merge_passes(&self, n: f64, bank: Bank) -> f64 {
        let run = self.machine.in_cache_run_codes(bank.bits());
        if n <= run {
            0.0
        } else {
            (n / run).ln() / (MERGE_FANOUT as f64).ln()
        }
        .ceil()
    }

    /// Binary in-cache merge passes for `n` codes in bank `b`:
    /// `⌈log2(min(n, in-cache-run) / L)⌉`, 0 when `n ≤ L`.
    pub fn in_cache_passes(&self, n: f64, bank: Bank) -> f64 {
        let l = bank.lanes() as f64;
        let run = self.machine.in_cache_run_codes(bank.bits());
        let top = n.min(run);
        if top <= l {
            0.0
        } else {
            (top / l).log2().ceil()
        }
    }

    /// `T_mergesort` (Eq. 5): one merge-sort of `n` codes in bank `b`.
    pub fn t_mergesort(&self, n: f64, bank: Bank) -> f64 {
        let bc = self.consts.bank(bank);
        let p_ic = self.in_cache_passes(n, bank);
        let p_oc = self.merge_passes(n, bank);
        bc.c_sort_network * n + bc.c_in_cache_merge * n * p_ic + bc.c_out_of_cache_merge * n * p_oc
    }

    /// What [`SortKernel::Auto`] spends sorting `groups` groups of `avg`
    /// rows each (`codes = groups · avg` rows in all), `width` live key
    /// bits in `bank`: the closed-form term of the one kernel
    /// [`kernel_for`] picks for that length —
    ///
    /// * insertion: `c_insertion · n² + c_insertion_row · n` per group;
    /// * packed-word: `c_packed[bank] · n · log2 n`;
    /// * radix: `⌈width/8⌉` scatter passes of
    ///   `n · c_radix_pass[bank] + c_radix_fixed` each (digits above
    ///   `width` hold one bucket and are skipped), at the `_mem` rate once
    ///   a group and its scatter destination outgrow the L2.
    fn t_auto_kernels(&self, groups: f64, codes: f64, avg: f64, bank: Bank, width: u32) -> f64 {
        let c = &self.consts;
        let bc = c.bank(bank);
        match kernel_for(avg.round() as usize) {
            SizeKernel::Insertion => codes * (c.c_insertion * avg + c.c_insertion_row),
            SizeKernel::Packed => bc.c_packed * codes * avg.log2(),
            SizeKernel::Radix => {
                let passes = f64::from(passes_for_width(width));
                let per_code = if avg <= self.machine.in_cache_run_codes(bank.bits()) {
                    bc.c_radix_pass
                } else {
                    bc.c_radix_pass_mem
                };
                passes * (codes * per_code + groups * c.c_radix_fixed)
            }
        }
    }

    /// `T_sort(N, b)` (Eq. 2): one sort invocation over `n` codes whose
    /// low `width` bits are live, by the configured [`CostModel::kernel`].
    pub fn t_sort_invocation(&self, n: f64, bank: Bank, width: u32) -> f64 {
        if n <= 1.0 {
            return 0.0;
        }
        match self.kernel {
            SortKernel::Auto => self.t_auto_kernels(1.0, n, n, bank, width),
            SortKernel::MergeSort => self.consts.c_overhead + self.t_mergesort(n, bank),
        }
    }

    /// `T^k_sort` (Eq. 1) for a round of `width` bits sorting within the
    /// estimated groups. O(1): the round is priced at its average
    /// sortable group size.
    pub fn t_sort_round(&self, est: &GroupEstimate, bank: Bank, width: u32) -> f64 {
        if est.sortable < 0.5 {
            return 0.0;
        }
        if self.kernel == SortKernel::Auto {
            return self.t_auto_kernels(
                est.sortable,
                est.codes_in_sortable,
                est.avg_sortable_size,
                bank,
                width,
            );
        }
        let bc = self.consts.bank(bank);
        let p_ic = self.in_cache_passes(est.avg_sortable_size, bank);
        let p_oc = self.merge_passes(est.avg_sortable_size, bank);
        est.sortable * self.consts.c_overhead
            + est.codes_in_sortable * bc.c_sort_network
            + est.codes_in_sortable * bc.c_in_cache_merge * p_ic
            + est.codes_in_sortable * bc.c_out_of_cache_merge * p_oc
    }

    /// `T_sort^{j+1}` given that rounds `1..=j` cover `prefix_bits` of the
    /// key and round `j+1` uses `bank` — the quantity Algorithm 1's greedy
    /// step minimizes (its line 11). The greedy step fixes round `j+1`'s
    /// width only later, so the round is priced at the bank's full width.
    pub fn t_sort_after_prefix(&self, inst: &SortInstance, prefix_bits: u32, bank: Bank) -> f64 {
        let est = estimate_groups(&inst.stats, inst.rows, prefix_bits);
        self.t_sort_round(&est, bank, bank.bits())
    }

    /// One round of a plan over `n` rows, the term [`Self::t_mcs_rounds`]
    /// sums per round. The first round (`est` = `None`) sorts all rows in
    /// one invocation; a later one looks its codes up and sorts within
    /// the groups `est` expects from the bits before it. `scan`: whether
    /// the round's boundary scan runs (on every round but a last one whose
    /// grouping nobody reads). The exact plan search prices its edges with
    /// this same function, so a path's length is the plan's `T_mcs`.
    pub fn t_round(
        &self,
        n: usize,
        est: Option<&GroupEstimate>,
        round: Round,
        scan: bool,
    ) -> RoundCost {
        let (lookup, sort, est_groups_in) = match est {
            None => (
                0.0,
                self.t_sort_invocation(n as f64, round.bank, round.width),
                1.0,
            ),
            Some(est) => (
                self.t_lookup(n, round.width),
                self.t_sort_round(est, round.bank, round.width),
                est.groups,
            ),
        };
        RoundCost {
            width: round.width,
            bank: round.bank,
            lookup,
            sort,
            scan: if scan { self.t_scan(n) } else { 0.0 },
            est_groups_in,
        }
    }

    /// The class of a round width that [`Self::t_round`] prices alike in
    /// the width's tight bank: its bytes `⌈w/8⌉`, which fix the bank, the
    /// radix passes and the lookup's code size. A plan search prices one
    /// width per class and start.
    pub fn width_class(width: u32) -> u32 {
        width.div_ceil(8)
    }

    /// Full per-round `T_mcs` prediction of executing `plan` on `inst` —
    /// one [`RoundCost`] per round plus the massage term. This is the
    /// model's finest-grained output; [`Self::t_mcs_breakdown`] and
    /// [`Self::t_mcs`] are sums over the same terms.
    pub fn t_mcs_rounds(&self, inst: &SortInstance, plan: &MassagePlan) -> PlanCost {
        let (massage, rounds) = self.priced(inst, None, plan);
        PlanCost {
            massage,
            rounds: rounds.collect(),
        }
    }

    /// Full `T_mcs` (ns) of executing `plan` on `inst`, with breakdown.
    pub fn t_mcs_breakdown(&self, inst: &SortInstance, plan: &MassagePlan) -> CostBreakdown {
        self.breakdown(inst, None, plan)
    }

    /// `T_mcs` (ns). Allocates nothing.
    pub fn t_mcs(&self, inst: &SortInstance, plan: &MassagePlan) -> f64 {
        self.t_mcs_breakdown(inst, plan).total()
    }

    /// `T_mcs` (ns) of `plan` over `inst`'s columns taken in `order`: the
    /// cost on `inst` permuted to `order`, without building that
    /// instance. Allocates nothing.
    pub fn t_mcs_in_order(&self, inst: &SortInstance, order: &[usize], plan: &MassagePlan) -> f64 {
        self.breakdown(inst, Some(order), plan).total()
    }

    fn breakdown(
        &self,
        inst: &SortInstance,
        order: Option<&[usize]>,
        plan: &MassagePlan,
    ) -> CostBreakdown {
        let (massage, rounds) = self.priced(inst, order, plan);
        let mut b = CostBreakdown {
            massage,
            ..CostBreakdown::default()
        };
        for r in rounds {
            b.lookup += r.lookup;
            b.sort += r.sort;
            b.scan += r.scan;
        }
        b
    }

    /// The massage term and the per-round terms of `plan` over `inst`'s
    /// columns in `order` (their own order when `None`), priced lazily.
    /// Under the `COST_NAN` fault the massage term is NaN and no round is
    /// priced.
    fn priced<'a>(
        &'a self,
        inst: &'a SortInstance,
        order: Option<&'a [usize]>,
        plan: &'a MassagePlan,
    ) -> (f64, impl Iterator<Item = RoundCost> + 'a) {
        let nan = mcs_faults::fault_point!(mcs_faults::points::COST_NAN);
        let n = inst.rows;
        let col = move |j: usize| order.map_or(j, |o| o[j]);
        let columns = 0..inst.specs.len();
        let in_widths = columns.clone().map(move |j| &inst.specs[col(j)].width);
        let stats = move || columns.clone().map(move |j| &inst.stats[col(j)]);

        // Massage: free only for the identity (column-aligned, all-ASC).
        let identity =
            plan.is_column_aligned(in_widths.clone()) && inst.specs.iter().all(|s| !s.descending);
        let massage = if nan {
            f64::NAN
        } else if identity {
            0.0
        } else {
            self.t_massage(n, plan.i_fip(in_widths))
        };

        let rounds = if nan { &[][..] } else { &plan.rounds[..] };
        let last = plan.rounds.len().saturating_sub(1);
        let priced = rounds
            .iter()
            .enumerate()
            .scan(0u32, move |prefix_bits, (k, &round)| {
                let est = (k > 0).then(|| estimate_groups(stats(), n, *prefix_bits));
                let scan = k < last || inst.want_final_groups;
                *prefix_bits += round.width;
                Some(self.t_round(n, est.as_ref(), round, scan))
            });
        (massage, priced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's model: its Ex1–Ex4 shapes are claims about the SIMD
    /// merge-sort.
    fn model() -> CostModel {
        CostModel {
            consts: CostConstants::defaults(),
            machine: MachineSpec::default(),
            kernel: SortKernel::MergeSort,
        }
    }

    fn auto_model() -> CostModel {
        CostModel {
            kernel: SortKernel::Auto,
            ..model()
        }
    }

    #[test]
    fn lookup_cost_grows_past_cache() {
        let m = model();
        // Tiny column: all cached.
        let small = m.t_lookup(1000, 32) / 1000.0;
        assert!((small - m.consts.c_cache).abs() < 1e-9);
        // Huge column: mostly memory.
        let n = 64 * 1024 * 1024;
        let big = m.t_lookup(n, 32) / n as f64;
        assert!(big > 0.8 * m.consts.c_mem);
    }

    #[test]
    fn merge_passes_zero_in_cache() {
        let m = model();
        assert_eq!(m.merge_passes(100.0, Bank::B32), 0.0);
        let run = m.machine.in_cache_run_codes(32);
        assert_eq!(m.merge_passes(run * 2.0, Bank::B32), 1.0);
        assert!(m.merge_passes(run * 100.0, Bank::B32) >= 2.0);
    }

    #[test]
    fn ex1_stitching_beats_p0() {
        // Ex1: 10-bit + 17-bit columns, 2^24 rows, 2^10/2^13 NDV.
        // The stitched 27-bit plan should beat column-at-a-time.
        let inst = SortInstance::uniform(1 << 24, &[(10, 1024.0), (17, 8192.0)]);
        let m = model();
        let p0 = inst.p0();
        let stitched = MassagePlan::from_widths(&[27]);
        assert!(
            m.t_mcs(&inst, &stitched) < m.t_mcs(&inst, &p0),
            "stitch {} vs p0 {}",
            m.t_mcs(&inst, &stitched),
            m.t_mcs(&inst, &p0)
        );
    }

    #[test]
    fn ex2_reckless_stitch_loses() {
        // Ex2: 15-bit + 31-bit; stitching to 46 bits forces a 64-bit bank
        // and should LOSE to P0 (paper Figure 3b).
        let inst = SortInstance::uniform(1 << 24, &[(15, 8192.0), (31, 8192.0)]);
        let m = model();
        let p0 = inst.p0();
        let stitched = MassagePlan::from_widths(&[46]);
        assert!(
            m.t_mcs(&inst, &stitched) > m.t_mcs(&inst, &p0),
            "stitch {} vs p0 {}",
            m.t_mcs(&inst, &stitched),
            m.t_mcs(&inst, &p0)
        );
    }

    #[test]
    fn ex3_borrow_one_bit_wins() {
        // Ex3: 17+33 bits. P_<<1 = {18/[32], 32/[32]} should beat P0 =
        // {17/[32], 33/[64]} (paper Figure 4a).
        let inst = SortInstance::uniform(1 << 24, &[(17, 8192.0), (33, 8192.0)]);
        let m = model();
        let p0 = inst.p0();
        let p1 = MassagePlan::from_widths(&[18, 32]);
        assert!(m.t_mcs(&inst, &p1) < m.t_mcs(&inst, &p0));
    }

    #[test]
    fn ex4_three_rounds_beat_two() {
        // Ex4: 48+48 bits. {32,32,32} (all 32-bit banks) should beat
        // P0 = {48/[64], 48/[64]} (paper Figure 3c).
        let inst = SortInstance::uniform(1 << 24, &[(48, 8192.0), (48, 8192.0)]);
        let m = model();
        let p0 = inst.p0();
        let p3 = MassagePlan::from_widths(&[32, 32, 32]);
        assert!(m.t_mcs(&inst, &p3) < m.t_mcs(&inst, &p0));
    }

    #[test]
    fn auto_prices_the_kernel_the_dispatch_runs() {
        use mcs_simd_sort::{INSERTION_MAX_ROWS, PACKED_MAX_ROWS};
        let m = auto_model();
        let c = &m.consts;
        // Insertion: quadratic plus linear, bank- and width-blind.
        let n = INSERTION_MAX_ROWS as f64;
        let ins = c.c_insertion * n * n + c.c_insertion_row * n;
        assert!((m.t_sort_invocation(n, Bank::B16, 9) - ins).abs() < 1e-9);
        assert!((m.t_sort_invocation(n, Bank::B64, 60) - ins).abs() < 1e-9);
        // Packed: n log n at the bank's constant.
        let n = PACKED_MAX_ROWS as f64;
        let packed = c.b32.c_packed * n * n.log2();
        assert!((m.t_sort_invocation(n, Bank::B32, 20) - packed).abs() < 1e-9);
        // Radix: one term per live key byte — massaging a round from 17
        // down to 16 bits drops a pass, widening it within a byte is free.
        let n = 10_000.0;
        let pass = n * c.b32.c_radix_pass + c.c_radix_fixed;
        assert!((m.t_sort_invocation(n, Bank::B32, 17) - 3.0 * pass).abs() < 1e-6);
        assert!((m.t_sort_invocation(n, Bank::B32, 24) - 3.0 * pass).abs() < 1e-6);
        let pass16 = n * c.b16.c_radix_pass + c.c_radix_fixed;
        assert!((m.t_sort_invocation(n, Bank::B16, 16) - 2.0 * pass16).abs() < 1e-6);
        // Past the L2 the per-pass rate switches to the memory constant.
        let big = m.machine.in_cache_run_codes(32) * 4.0;
        let pass_mem = big * c.b32.c_radix_pass_mem + c.c_radix_fixed;
        assert!((m.t_sort_invocation(big, Bank::B32, 32) - 4.0 * pass_mem).abs() < 1e-3);
        // Nothing to sort costs nothing under either kernel.
        assert_eq!(m.t_sort_invocation(1.0, Bank::B32, 32), 0.0);
        assert_eq!(model().t_sort_invocation(1.0, Bank::B32, 32), 0.0);
    }

    #[test]
    fn auto_round_is_priced_at_its_average_group() {
        let m = auto_model();
        let est = |groups: f64, avg: f64| GroupEstimate {
            groups,
            sortable: groups,
            codes_in_sortable: groups * avg,
            avg_sortable_size: avg,
        };
        // 1000 groups of 64 rows cost 1000 packed sorts of 64 rows.
        let one = m.t_sort_invocation(64.0, Bank::B32, 32);
        let round = m.t_sort_round(&est(1000.0, 64.0), Bank::B32, 32);
        assert!((round - 1000.0 * one).abs() < 1e-6);
        // Same for radix-sized groups, fixed cost included.
        let one = m.t_sort_invocation(2048.0, Bank::B64, 40);
        let round = m.t_sort_round(&est(50.0, 2048.0), Bank::B64, 40);
        assert!((round - 50.0 * one).abs() < 1e-6);
        // No sortable groups: free.
        assert_eq!(m.t_sort_round(&est(0.0, 0.0), Bank::B16, 8), 0.0);
    }

    #[test]
    fn breakdown_sums() {
        let inst = SortInstance::uniform(100_000, &[(12, 4096.0), (20, 50_000.0)]);
        let m = model();
        let plan = MassagePlan::from_widths(&[16, 16]);
        let b = m.t_mcs_breakdown(&inst, &plan);
        assert!((b.total() - (b.massage + b.lookup + b.sort + b.scan)).abs() < 1e-9);
        assert!(b.massage > 0.0 && b.sort > 0.0 && b.scan > 0.0 && b.lookup > 0.0);
        // P0 pays no massage.
        let b0 = m.t_mcs_breakdown(&inst, &inst.p0());
        assert_eq!(b0.massage, 0.0);
    }

    #[test]
    fn desc_p0_pays_complement() {
        let mut inst = SortInstance::uniform(10_000, &[(12, 4096.0)]);
        inst.specs[0].descending = true;
        let m = model();
        let b = m.t_mcs_breakdown(&inst, &inst.p0());
        assert!(b.massage > 0.0);
    }
}
