//! ROGA — the round-based greedy plan search algorithm (Algorithm 1).
//!
//! Candidate plans are explored round-count by round-count (`k = 1, 2, …`
//! up to the Lemma-2 bound). Within each `k`, every valid bank
//! combination spans a subspace; for `k ≤ 2` all canonical width
//! assignments are costed exhaustively (as in the paper's walkthrough),
//! while for `k ≥ 3` bits are assigned greedily: `a_j` is chosen to
//! minimize the estimated sorting cost of round `j+1`. A stopwatch
//! enforces the time threshold `ρ`: search stops once the elapsed time
//! exceeds `ρ · T_mcs(P*)` of the best plan found so far.

use std::time::Instant;

use mcs_core::{Bank, MassagePlan, Round};
use mcs_cost::{CostModel, SortInstance};
use mcs_telemetry as telemetry;

use crate::error::SearchError;
use crate::space::{bank_combos, max_rounds, permutations, width_assignments};

/// Options of the plan search.
#[derive(Debug, Clone)]
pub struct RogaOptions {
    /// Time threshold `ρ` as a fraction of the best plan's estimated
    /// execution time (paper default 0.1 % = `0.001`). `None` disables
    /// the deadline (the paper's "N/S").
    pub rho: Option<f64>,
    /// Explore column permutations (GROUP BY / PARTITION BY semantics —
    /// the sorting sequence among columns is free; `m!` larger space).
    pub permute_columns: bool,
}

impl Default for RogaOptions {
    fn default() -> Self {
        RogaOptions {
            rho: Some(0.001),
            permute_columns: false,
        }
    }
}

/// Outcome of a plan search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The chosen plan.
    pub plan: MassagePlan,
    /// Column order the plan applies to (identity unless
    /// `permute_columns` found a better order).
    pub column_order: Vec<usize>,
    /// Estimated cost `T_mcs` of the chosen plan (ns).
    pub est_cost: f64,
    /// Number of complete plans costed.
    pub plans_costed: usize,
    /// Wall-clock time of the search.
    pub elapsed: std::time::Duration,
    /// Whether the `ρ` deadline fired before the space was exhausted.
    pub timed_out: bool,
}

/// Apply a column order to an instance.
pub fn permute_instance(inst: &SortInstance, order: &[usize]) -> SortInstance {
    SortInstance {
        rows: inst.rows,
        specs: order.iter().map(|&i| inst.specs[i]).collect(),
        stats: order.iter().map(|&i| inst.stats[i].clone()).collect(),
        want_final_groups: inst.want_final_groups,
    }
}

/// Run ROGA on `inst` with `model`.
///
/// Fails with [`SearchError::EmptySortKey`] on a zero-width instance
/// (there is nothing to plan); a fired deadline is *not* an error — the
/// incumbent (at worst `P_0`) is returned with `timed_out` set.
pub fn roga(
    inst: &SortInstance,
    model: &CostModel,
    opts: &RogaOptions,
) -> Result<SearchResult, SearchError> {
    let w = inst.total_width();
    if w == 0 {
        return Err(SearchError::EmptySortKey);
    }
    let start = Instant::now();
    if mcs_faults::fault_point!(mcs_faults::points::PLANNER_SEARCH) {
        return Err(SearchError::Injected(mcs_faults::points::PLANNER_SEARCH));
    }
    if mcs_faults::fault_point!(mcs_faults::points::PLANNER_STARVE) {
        // Simulated total starvation: the deadline fired before even P0
        // could be costed. The plan is still valid (Lemma 1), but the
        // caller gets no usable estimate and should degrade.
        return Ok(SearchResult {
            plan: inst.p0(),
            column_order: (0..inst.specs.len()).collect(),
            est_cost: f64::INFINITY,
            plans_costed: 0,
            elapsed: start.elapsed(),
            timed_out: true,
        });
    }

    let orders: Vec<Vec<usize>> = if opts.permute_columns {
        permutations(inst.specs.len())
    } else {
        vec![(0..inst.specs.len()).collect()]
    };

    // Initialize the global optimum with P0 on the given order.
    let mut best_plan = inst.p0();
    let mut best_cost = model.t_mcs(inst, &best_plan);
    let mut best_order: Vec<usize> = (0..inst.specs.len()).collect();
    let mut plans_costed = 1usize;
    let mut timed_out = false;

    let k_max = max_rounds(w, Bank::B16.bits());

    'outer: for order in &orders {
        let pinst = permute_instance(inst, order);
        for k in 1..=k_max {
            for combo in bank_combos(w, k) {
                if let Some(rho) = opts.rho {
                    if start.elapsed().as_nanos() as f64 > rho * best_cost {
                        timed_out = true;
                        break 'outer;
                    }
                }
                if k <= 2 {
                    // Exhaustive within the combo (paper's k=1,2 treatment).
                    for widths in width_assignments(w, &combo) {
                        let plan = MassagePlan::new(
                            widths
                                .iter()
                                .zip(&combo)
                                .map(|(&width, &bank)| Round { width, bank })
                                .collect(),
                        );
                        let cost = model.t_mcs(&pinst, &plan);
                        plans_costed += 1;
                        if cost < best_cost {
                            best_cost = cost;
                            best_plan = plan;
                            best_order = order.clone();
                        }
                    }
                } else if let Some(plan) = greedy_assign(&pinst, model, w, &combo) {
                    let cost = model.t_mcs(&pinst, &plan);
                    plans_costed += 1;
                    if cost < best_cost {
                        best_cost = cost;
                        best_plan = plan;
                        best_order = order.clone();
                    }
                }
            }
        }
    }

    if telemetry::is_enabled() {
        telemetry::record_span(
            "planner.roga",
            start.elapsed().as_nanos() as u64,
            vec![
                ("plans_costed", plans_costed.into()),
                ("est_cost_ns", best_cost.into()),
                ("timed_out", timed_out.into()),
                ("plan", best_plan.notation().into()),
            ],
        );
        telemetry::counter_add("planner.plans_costed", plans_costed as u64);
        if timed_out {
            telemetry::counter_add("planner.deadline_hits", 1);
        }
    }
    Ok(SearchResult {
        plan: best_plan,
        column_order: best_order,
        est_cost: best_cost,
        plans_costed,
        elapsed: start.elapsed(),
        timed_out,
    })
}

/// Greedy width assignment for a `k ≥ 3` bank combo (Algorithm 1 lines
/// 9–16): pick `a_j` minimizing the estimated `T_sort^{j+1}`, honoring
/// feasibility (enough capacity must remain for the later rounds, and
/// every later round needs ≥ 1 bit). Returns `None` if the combo admits
/// no canonical assignment on this instance.
fn greedy_assign(
    inst: &SortInstance,
    model: &CostModel,
    total_width: u32,
    combo: &[Bank],
) -> Option<MassagePlan> {
    let k = combo.len();
    let mut widths: Vec<u32> = Vec::with_capacity(k);
    let mut assigned = 0u32;
    for j in 0..k - 1 {
        let b = combo[j];
        let cap_rest: u32 = combo[j + 1..].iter().map(|x| x.bits()).sum();
        let rounds_rest = (k - 1 - j) as u32;
        let left = total_width - assigned;
        let lo_bank = match b {
            Bank::B16 => 1,
            Bank::B32 => 17,
            Bank::B64 => 33,
        };
        let min_a = lo_bank.max(left.saturating_sub(cap_rest)).max(1);
        let max_a = b.bits().min(left.saturating_sub(rounds_rest));
        if min_a > max_a {
            return None;
        }
        let mut best_a = min_a;
        let mut best_t = f64::INFINITY;
        for a in min_a..=max_a {
            let t = model.t_sort_after_prefix(inst, assigned + a, combo[j + 1]);
            if t < best_t {
                best_t = t;
                best_a = a;
            }
        }
        widths.push(best_a);
        assigned += best_a;
    }
    // Remaining bits to the last round (line 16).
    let last = total_width - assigned;
    let b_last = *combo.last()?;
    if last == 0 || last > b_last.bits() || Bank::min_for_width(last) != b_last {
        return None;
    }
    widths.push(last);
    Some(MassagePlan::new(
        widths
            .iter()
            .zip(combo)
            .map(|(&width, &bank)| Round { width, bank })
            .collect(),
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mcs_cost::CostModel;

    fn model() -> CostModel {
        CostModel::with_defaults()
    }

    #[test]
    fn roga_finds_stitch_for_ex1() {
        // Ex1 (10+17 bits, 2^24 rows): the known-good plan is the 27-bit
        // stitch; ROGA must return something at least as cheap as both the
        // stitch and P0.
        let inst = SortInstance::uniform(1 << 24, &[(10, 1024.0), (17, 8192.0)]);
        let m = model();
        let r = roga(&inst, &m, &RogaOptions::default()).expect("non-empty key");
        let stitch = MassagePlan::from_widths(&[27]);
        assert!(r.est_cost <= m.t_mcs(&inst, &stitch) + 1.0);
        assert!(r.est_cost <= m.t_mcs(&inst, &inst.p0()) + 1.0);
        assert!(r.plans_costed > 1);
    }

    #[test]
    fn roga_beats_p0_on_ex3() {
        // Ex3 (17+33): the optimum P_<<1 = {18/[32], 32/[32]}.
        let inst = SortInstance::uniform(1 << 24, &[(17, 8192.0), (33, 8192.0)]);
        let m = model();
        let r = roga(&inst, &m, &RogaOptions::default()).expect("non-empty key");
        let p_ll1 = MassagePlan::from_widths(&[18, 32]);
        assert!(
            r.est_cost <= m.t_mcs(&inst, &p_ll1) + 1.0,
            "roga {} ({}) vs P<<1 {}",
            r.est_cost,
            r.plan,
            m.t_mcs(&inst, &p_ll1)
        );
    }

    #[test]
    fn roga_never_worse_than_p0() {
        let m = model();
        for (rows, cols) in [
            (1usize << 20, vec![(12u32, 4096.0), (17, 131072.0)]),
            (1 << 18, vec![(48, 8192.0), (48, 8192.0)]),
            (1 << 16, vec![(7, 100.0), (9, 400.0), (30, 1e6)]),
            (1 << 14, vec![(64, 1e4)]),
        ] {
            let inst = SortInstance::uniform(rows, &cols);
            let r = roga(&inst, &m, &RogaOptions::default()).expect("non-empty key");
            assert!(r.est_cost <= m.t_mcs(&inst, &inst.p0()) + 1.0);
            assert!(r.plan.validate(inst.total_width()).is_ok());
        }
    }

    #[test]
    fn group_by_permutations_help() {
        // Low-NDV column second: for GROUP BY, putting it first can shrink
        // round-2 work. With permutations allowed the result can only be
        // at least as good.
        let inst = SortInstance::uniform(1 << 20, &[(30, 1e6), (4, 16.0)]);
        let m = model();
        let fixed = roga(
            &inst,
            &m,
            &RogaOptions {
                permute_columns: false,
                ..Default::default()
            },
        )
        .expect("non-empty key");
        let free = roga(
            &inst,
            &m,
            &RogaOptions {
                permute_columns: true,
                rho: None,
            },
        )
        .expect("non-empty key");
        assert!(free.est_cost <= fixed.est_cost + 1.0);
    }

    #[test]
    fn rho_deadline_fires_on_wide_keys() {
        // A very wide key (many columns) with a tiny rho must time out.
        let cols: Vec<(u32, f64)> = (0..7).map(|_| (20u32, 1e5)).collect();
        let inst = SortInstance::uniform(1 << 22, &cols);
        let m = model();
        let r = roga(
            &inst,
            &m,
            &RogaOptions {
                rho: Some(1e-9),
                permute_columns: false,
            },
        )
        .expect("non-empty key");
        assert!(r.timed_out);
        // Still returns a valid plan (at worst P0).
        assert!(r.plan.validate(inst.total_width()).is_ok());
    }

    #[test]
    fn empty_sort_key_is_a_typed_error() {
        let inst = SortInstance::uniform(1 << 10, &[]);
        let r = roga(&inst, &model(), &RogaOptions::default()).map(|r| r.plans_costed);
        assert_eq!(r, Err(SearchError::EmptySortKey));
    }

    #[test]
    fn greedy_assign_respects_bank_floors() {
        let inst = SortInstance::uniform(1 << 16, &[(20, 1e5), (20, 1e5), (19, 1e5)]);
        let m = model();
        let plan = greedy_assign(&inst, &m, 59, &[Bank::B32, Bank::B16, Bank::B32]);
        if let Some(p) = plan {
            assert!(p.validate(59).is_ok());
            assert_eq!(Bank::min_for_width(p.rounds[0].width), Bank::B32);
            assert_eq!(Bank::min_for_width(p.rounds[1].width), Bank::B16);
        }
    }
}
