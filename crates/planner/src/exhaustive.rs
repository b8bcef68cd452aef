//! The "perfect cost model" `A_i` (§6.1): exhaustively enumerate feasible
//! plans and *measure their actual execution times* on real data. Used to
//! compute the `rank` metric of Table 1 and the Figure 7 scatter.
//!
//! The full space is `2^{W-1}` compositions; the paper notes that
//! obtaining the `A_i`'s "took us weeks". We bound the enumeration by a
//! round cap and a plan cap so a ranking run stays laptop-scale — the
//! caps are reported alongside results.

use std::time::Instant;

use mcs_columnar::CodeVec;
use mcs_core::{multi_column_sort, ExecArena, ExecConfig, MassagePlan, SortError, SortSpec};

use crate::space::enumerate_compositions;

/// A plan together with its measured execution time.
#[derive(Debug, Clone)]
pub struct MeasuredPlan {
    /// The plan.
    pub plan: MassagePlan,
    /// Measured wall-clock of the multi-column sort (ns).
    pub actual_ns: u64,
}

/// Options for exhaustive measurement.
#[derive(Debug, Clone)]
pub struct ExhaustiveOptions {
    /// Maximum rounds to enumerate (default: 4 — optima in the paper's
    /// workloads always have few rounds).
    pub max_rounds: u32,
    /// Hard cap on the number of plans to execute.
    pub max_plans: usize,
    /// Repetitions per plan (median taken).
    pub repeats: usize,
    /// Execution configuration.
    pub exec: ExecConfig,
}

impl Default for ExhaustiveOptions {
    fn default() -> Self {
        ExhaustiveOptions {
            max_rounds: 4,
            max_plans: 3000,
            repeats: 1,
            exec: ExecConfig::default(),
        }
    }
}

/// Enumerate (capped) feasible plans for the key width of `specs` and
/// execute each on the given columns, returning plans with measured
/// times, **sorted fastest-first**. Plans whose execution fails (which
/// only happens on malformed inputs or under fault injection) are
/// skipped rather than aborting the whole enumeration.
pub fn measure_all_plans(
    inputs: &[&CodeVec],
    specs: &[SortSpec],
    opts: &ExhaustiveOptions,
) -> Vec<MeasuredPlan> {
    let total: u32 = specs.iter().map(|s| s.width).sum();
    // Enumerate generously, then stride-sample down to the execution cap
    // so the sample spans the whole space instead of its lexicographic
    // prefix.
    let all = enumerate_compositions(total, opts.max_rounds, opts.max_plans.saturating_mul(64));
    let plans: Vec<MassagePlan> = if all.len() > opts.max_plans {
        let stride = all.len() as f64 / opts.max_plans as f64;
        (0..opts.max_plans)
            .map(|i| all[(i as f64 * stride) as usize].clone())
            .collect()
    } else {
        all
    };
    let mut out: Vec<MeasuredPlan> = plans
        .into_iter()
        .filter_map(|plan| {
            let actual_ns = measure_plan(inputs, specs, &plan, opts).ok()?;
            Some(MeasuredPlan { plan, actual_ns })
        })
        .collect();
    out.sort_by_key(|m| m.actual_ns);
    out
}

/// The rank (1-based) of `plan` within `measured` (fastest = 1). Plans
/// not present rank after everything.
pub fn rank_of(plan: &MassagePlan, measured: &[MeasuredPlan]) -> usize {
    measured
        .iter()
        .position(|m| m.plan == *plan)
        .map(|p| p + 1)
        .unwrap_or(measured.len() + 1)
}

/// Measure one plan's actual execution time (same protocol as
/// [`measure_all_plans`]), propagating execution failures instead of
/// panicking.
pub fn measure_plan(
    inputs: &[&CodeVec],
    specs: &[SortSpec],
    plan: &MassagePlan,
    opts: &ExhaustiveOptions,
) -> Result<u64, SortError> {
    let mut best = u64::MAX;
    for _ in 0..opts.repeats.max(1) {
        let t = Instant::now();
        let r = multi_column_sort(inputs, None, specs, plan, &opts.exec, &mut ExecArena::new())?;
        let ns = t.elapsed().as_nanos() as u64;
        std::hint::black_box(&r.oids);
        best = best.min(ns);
    }
    Ok(best)
}

/// Rank a plan by its own measured time within a measured population:
/// `1 + |{plans strictly faster}|`. Robust to the plan not being part of
/// the (possibly sampled) population.
pub fn rank_by_time(actual_ns: u64, measured: &[MeasuredPlan]) -> usize {
    measured.partition_point(|m| m.actual_ns < actual_ns) + 1
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_ranks() {
        let n = 2000usize;
        let a = CodeVec::from_u64s(5, (0..n).map(|i| (i % 32) as u64));
        let b = CodeVec::from_u64s(4, (0..n).map(|i| (i % 16) as u64));
        let specs = vec![SortSpec::asc(5), SortSpec::asc(4)];
        let opts = ExhaustiveOptions {
            max_rounds: 3,
            max_plans: 500,
            ..Default::default()
        };
        let measured = measure_all_plans(&[&a, &b], &specs, &opts);
        // Compositions of 9 into <=3 parts: C(8,0)+C(8,1)+C(8,2) = 37.
        assert_eq!(measured.len(), 37);
        assert!(measured
            .windows(2)
            .all(|w| w[0].actual_ns <= w[1].actual_ns));
        let p0 = MassagePlan::column_at_a_time(&specs);
        let r = rank_of(&p0, &measured);
        assert!((1..=37).contains(&r));
        let missing = MassagePlan::from_widths(&[1; 9]);
        assert_eq!(rank_of(&missing, &measured), 38);
    }
}
