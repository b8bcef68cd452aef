//! RRS — recursive random search (Ye & Kalyanaraman [41]), the baseline
//! plan-search algorithm of §6.1.
//!
//! RRS treats plan search as black-box optimization over the composition
//! space: an *explore* phase samples random plans to find a promising
//! center; an *exploit* phase samples shrinking neighborhoods around the
//! incumbent, re-centering on improvement; when the neighborhood
//! collapses, exploration restarts. The same cost model prices samples,
//! and the search is stopped at the same wall-clock budget as ROGA (the
//! paper stops RRS "when ROGA stops").

use std::time::{Duration, Instant};

use mcs_core::MassagePlan;
use mcs_cost::{CostModel, SortInstance};
use mcs_test_support::Rng;

use crate::error::SearchError;
use crate::roga::{permute_instance, SearchResult};
use crate::space::max_rounds;

/// RRS tuning.
#[derive(Debug, Clone)]
pub struct RrsOptions {
    /// Wall-clock budget; typically the `elapsed` of a ROGA run.
    pub budget: Duration,
    /// Samples per explore phase.
    pub explore_samples: usize,
    /// Samples per neighborhood level in the exploit phase.
    pub exploit_samples: usize,
    /// Explore column permutations (GROUP BY semantics).
    pub permute_columns: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RrsOptions {
    fn default() -> Self {
        RrsOptions {
            budget: Duration::from_millis(5),
            explore_samples: 40,
            exploit_samples: 12,
            permute_columns: false,
            seed: 0x5EED,
        }
    }
}

/// A random composition of `total` bits into at most `k_max` parts ≤ 64.
fn random_plan(rng: &mut Rng, total: u32, k_max: u32) -> MassagePlan {
    // Pick a round count biased toward few rounds (where optima live) —
    // but never below ⌈total/64⌉, which no composition can undercut —
    // then cut the key at k-1 random positions, rejecting cuts that leave
    // a part wider than a 64-bit bank. The round count is resampled on
    // every attempt so rejection always terminates.
    let k_min = total.div_ceil(64).max(1);
    let k_cap = k_max.min(total).max(k_min);
    let span = (k_cap - k_min).min(5);
    let widths = loop {
        let k = k_min + rng.gen_range(0..=span);
        let mut cuts: Vec<u32> = (0..k - 1).map(|_| rng.gen_range(1..total.max(2))).collect();
        cuts.push(0);
        cuts.push(total);
        cuts.sort_unstable();
        cuts.dedup();
        let ws: Vec<u32> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
        if !ws.is_empty() && ws.iter().all(|&w| (1..=64).contains(&w)) {
            break ws;
        }
    };
    MassagePlan::from_widths(&widths)
}

/// Perturb `plan` by moving one boundary by up to `delta` bits, or
/// merging/splitting a round.
fn neighbor(rng: &mut Rng, plan: &MassagePlan, total: u32, delta: u32) -> MassagePlan {
    let mut widths = plan.widths();
    let action = rng.gen_range(0..10u32);
    match action {
        0 if widths.len() >= 2 => {
            // Merge two adjacent rounds if the result fits a bank.
            let i = rng.gen_range(0..widths.len() - 1);
            if widths[i] + widths[i + 1] <= 64 {
                let w = widths.remove(i + 1);
                widths[i] += w;
            }
        }
        1 if widths.iter().any(|&w| w >= 2) => {
            // Split one round.
            let candidates: Vec<usize> = (0..widths.len()).filter(|&i| widths[i] >= 2).collect();
            let i = candidates[rng.gen_range(0..candidates.len())];
            let cut = rng.gen_range(1..widths[i]);
            let rest = widths[i] - cut;
            widths[i] = cut;
            widths.insert(i + 1, rest);
        }
        _ if widths.len() >= 2 => {
            // Shift a boundary by up to delta.
            let i = rng.gen_range(0..widths.len() - 1);
            let d = rng.gen_range(1..=delta.max(1));
            if rng.gen_bool(0.5) {
                // Move bits right -> left (grow round i).
                let d = d
                    .min(widths[i + 1].saturating_sub(1))
                    .min(64 - widths[i].min(64));
                widths[i] += d;
                widths[i + 1] -= d;
            } else {
                let d = d
                    .min(widths[i].saturating_sub(1))
                    .min(64 - widths[i + 1].min(64));
                widths[i] -= d;
                widths[i + 1] += d;
            }
        }
        _ => {}
    }
    debug_assert_eq!(widths.iter().sum::<u32>(), total);
    MassagePlan::from_widths(&widths)
}

/// Run RRS on `inst` under `opts.budget`.
///
/// Fails with [`SearchError::EmptySortKey`] on a zero-width instance;
/// budget expiry is the normal stopping rule, not an error.
pub fn rrs(
    inst: &SortInstance,
    model: &CostModel,
    opts: &RrsOptions,
) -> Result<SearchResult, SearchError> {
    let total = inst.total_width();
    if total == 0 {
        return Err(SearchError::EmptySortKey);
    }
    if mcs_faults::fault_point!(mcs_faults::points::PLANNER_SEARCH) {
        return Err(SearchError::Injected(mcs_faults::points::PLANNER_SEARCH));
    }
    let start = Instant::now();
    let mut rng = Rng::seed_from_u64(opts.seed);
    let k_max = max_rounds(total, 16);

    let mut best_plan = inst.p0();
    let mut best_cost = model.t_mcs(inst, &best_plan);
    let mut order: Vec<usize> = (0..inst.specs.len()).collect();
    let mut best_order = order.clone();
    let mut plans_costed = 1usize;

    'outer: while start.elapsed() < opts.budget {
        // Explore: random samples (random order when permuting).
        if opts.permute_columns {
            rng.shuffle(&mut order);
        }
        let pinst = permute_instance(inst, &order);
        let mut center = random_plan(&mut rng, total, k_max);
        let mut center_cost = model.t_mcs(&pinst, &center);
        plans_costed += 1;
        for _ in 0..opts.explore_samples {
            if start.elapsed() >= opts.budget {
                break 'outer;
            }
            let p = random_plan(&mut rng, total, k_max);
            let c = model.t_mcs(&pinst, &p);
            plans_costed += 1;
            if c < center_cost {
                center = p;
                center_cost = c;
            }
        }
        // Exploit: shrink neighborhood around the incumbent.
        let mut delta = (total / 2).max(1);
        while delta >= 1 {
            let mut improved = false;
            for _ in 0..opts.exploit_samples {
                if start.elapsed() >= opts.budget {
                    break;
                }
                let p = neighbor(&mut rng, &center, total, delta);
                let c = model.t_mcs(&pinst, &p);
                plans_costed += 1;
                if c < center_cost {
                    center = p;
                    center_cost = c;
                    improved = true;
                }
            }
            if !improved {
                if delta == 1 {
                    break;
                }
                delta /= 2;
            }
            if start.elapsed() >= opts.budget {
                break;
            }
        }
        if center_cost < best_cost {
            best_cost = center_cost;
            best_plan = center;
            best_order.clone_from(&order);
        }
    }

    Ok(SearchResult {
        plan: best_plan,
        column_order: best_order,
        est_cost: best_cost,
        plans_costed,
        elapsed: start.elapsed(),
        timed_out: true,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn rrs_returns_valid_plan_within_budget() {
        let inst = SortInstance::uniform(1 << 20, &[(17, 8192.0), (33, 8192.0)]);
        let m = CostModel::with_defaults();
        let opts = RrsOptions {
            budget: Duration::from_millis(20),
            ..Default::default()
        };
        let r = rrs(&inst, &m, &opts).expect("non-empty key");
        assert!(r.plan.validate(50).is_ok());
        assert!(r.est_cost <= m.t_mcs(&inst, &inst.p0()) + 1.0);
        assert!(r.plans_costed > 10);
    }

    #[test]
    fn random_plans_are_valid() {
        let mut rng = Rng::seed_from_u64(1);
        for total in [1u32, 5, 27, 50, 96, 130] {
            for _ in 0..50 {
                let p = random_plan(&mut rng, total, max_rounds(total, 16));
                assert!(p.validate(total).is_ok(), "total={total} plan={p}");
            }
        }
    }

    #[test]
    fn neighbors_preserve_total_width() {
        let mut rng = Rng::seed_from_u64(2);
        let mut p = MassagePlan::from_widths(&[17, 33]);
        for _ in 0..200 {
            p = neighbor(&mut rng, &p, 50, 8);
            assert!(p.validate(50).is_ok(), "{p}");
        }
    }
}
