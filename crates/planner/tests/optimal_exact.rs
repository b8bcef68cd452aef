//! The exact plan search against what it replaces: every enumerated plan,
//! unbounded ROGA, and a search over all column orders one by one.
//!
//! `optimal` also checks, in debug builds, that the length of the path it
//! found equals `T_mcs` of the plan it returns; every call below runs that
//! check. Each test reuses one [`SearchScratch`] across instances of
//! different shapes, so state left from one search must not leak into
//! the next.

use std::sync::atomic::{AtomicBool, Ordering};

use mcs_core::{MassagePlan, SortKernel, SortSpec};
use mcs_cost::{CostModel, KeyColumnStats, SortInstance};
use mcs_planner::{
    enumerate_compositions, next_order, optimal, permute_instance, roga, RogaOptions,
    SearchScratch, MAX_ORDER_COLUMNS,
};
use mcs_test_support::{check, Rng};

/// Both kernels' models: the size-driven default and the paper's
/// merge-sort.
fn models() -> [CostModel; 2] {
    let auto = CostModel::with_defaults();
    let merge = CostModel {
        kernel: SortKernel::MergeSort,
        ..auto.clone()
    };
    [auto, merge]
}

/// A random instance of `m` columns whose widths sum to at most a random
/// bound up to `max_width`: random rows, NDVs, directions and final
/// grouping.
fn instance(rng: &mut Rng, m: usize, max_width: u32) -> SortInstance {
    let mut left = rng.gen_range(m as u32..=max_width);
    let mut specs = Vec::with_capacity(m);
    let mut stats = Vec::with_capacity(m);
    for c in 0..m {
        let reserve = (m - c - 1) as u32;
        let width = rng.gen_range(1..=(left - reserve).min(64));
        left -= width;
        let ndv = rng.gen_range(1..=1u64 << width.min(20)) as f64;
        specs.push(SortSpec {
            width,
            descending: rng.gen_bool(0.25),
        });
        stats.push(KeyColumnStats::uniform(width, ndv));
    }
    SortInstance {
        rows: 1 << rng.gen_range(4..=24u32),
        specs,
        stats,
        want_final_groups: rng.gen_bool(0.5),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// For W ≤ 16 the whole tight-bank space is enumerable: the search's
/// plan costs exactly the cheapest enumerated plan, under both models,
/// and that cost is `T_mcs` of the plan it returns.
#[test]
fn optimal_equals_the_enumerated_optimum() {
    check("optimal_equals_the_enumerated_optimum", 64, |rng| {
        let m = rng.gen_range(1..=4usize);
        let inst = instance(rng, m, 16);
        let w = inst.total_width();
        let all = enumerate_compositions(w, w, usize::MAX);
        let mut scratch = SearchScratch::default();
        for model in models() {
            let r = optimal(&inst, &model, false, &mut scratch).expect("non-empty key");
            assert_eq!(r.column_order, (0..m).collect::<Vec<_>>());
            assert!(r.plan.validate(w).is_ok(), "{}", r.plan);
            assert!(close(r.est_cost, model.t_mcs(&inst, &r.plan)));
            let best = all
                .iter()
                .map(|p| model.t_mcs(&inst, p))
                .fold(f64::INFINITY, f64::min);
            assert!(
                close(r.est_cost, best),
                "{:?}: optimal {} ({}) vs enumerated {best}",
                model.kernel,
                r.est_cost,
                r.plan
            );
        }
    });
}

/// Wide keys, free orders and descending columns: the plan is valid for
/// the permuted instance, the order is a permutation, and the reported
/// cost is `T_mcs` of that plan on that order.
#[test]
fn optimal_cost_is_the_t_mcs_of_its_plan() {
    check("optimal_cost_is_the_t_mcs_of_its_plan", 64, |rng| {
        let m = rng.gen_range(1..=MAX_ORDER_COLUMNS + 2);
        let inst = instance(rng, m, 200);
        let mut scratch = SearchScratch::default();
        for model in models() {
            for free in [false, true] {
                let r = optimal(&inst, &model, free, &mut scratch).expect("non-empty key");
                let mut sorted = r.column_order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..m).collect::<Vec<_>>());
                let pinst = permute_instance(&inst, &r.column_order);
                assert!(r.plan.validate(inst.total_width()).is_ok());
                let cost = model.t_mcs(&pinst, &r.plan);
                assert!(close(r.est_cost, cost));
                assert_eq!(model.t_mcs_in_order(&inst, &r.column_order, &r.plan), cost);
                assert!(!r.timed_out);
            }
        }
    });
}

/// Never above ROGA with no deadline, on its own order and over free
/// orders.
#[test]
fn optimal_is_at_most_unbounded_roga() {
    check("optimal_is_at_most_unbounded_roga", 24, |rng| {
        let m = rng.gen_range(1..=3usize);
        let inst = instance(rng, m, 90);
        let mut scratch = SearchScratch::default();
        for model in models() {
            for permute_columns in [false, true] {
                let exact =
                    optimal(&inst, &model, permute_columns, &mut scratch).expect("non-empty key");
                let greedy = roga(
                    &inst,
                    &model,
                    &RogaOptions {
                        rho: None,
                        permute_columns,
                    },
                )
                .expect("non-empty key");
                assert!(
                    exact.est_cost <= greedy.est_cost * (1.0 + 1e-9),
                    "exact {} ({}) above ROGA {} ({})",
                    exact.est_cost,
                    exact.plan,
                    greedy.est_cost,
                    greedy.plan
                );
            }
        }
    });
}

/// The order search is the best fixed-order search over all `m!` orders.
#[test]
fn order_search_equals_the_best_fixed_order() {
    check("order_search_equals_the_best_fixed_order", 48, |rng| {
        let m = rng.gen_range(2..=4usize);
        let inst = instance(rng, m, 120);
        let mut scratch = SearchScratch::default();
        for model in models() {
            let free = optimal(&inst, &model, true, &mut scratch).expect("non-empty key");
            let mut order: Vec<usize> = (0..m).collect();
            let mut state = vec![0; m];
            let mut best = f64::INFINITY;
            loop {
                let pinst = permute_instance(&inst, &order);
                let fixed = optimal(&pinst, &model, false, &mut scratch).expect("non-empty key");
                best = best.min(fixed.est_cost);
                if !next_order(&mut order, &mut state) {
                    break;
                }
            }
            assert!(
                close(free.est_cost, best),
                "{:?}: order search {} ({} on {:?}) vs best order {best}",
                model.kernel,
                free.est_cost,
                free.plan,
                free.column_order
            );
        }
    });
}

/// No clock decides the plan: twenty searches with a thread spinning on
/// the other core, through one scratch shared by four instances, return
/// the plan and order a fresh scratch returns.
#[test]
fn same_plan_under_a_busy_core() {
    let mut rng = Rng::seed_from_u64(0x0B5E55ED);
    let instances: Vec<SortInstance> = (0..4)
        .map(|_| instance(&mut rng, MAX_ORDER_COLUMNS, 160))
        .collect();
    let model = CostModel::with_defaults();
    let first: Vec<(MassagePlan, Vec<usize>)> = instances
        .iter()
        .map(|inst| {
            let r =
                optimal(inst, &model, true, &mut SearchScratch::default()).expect("non-empty key");
            (r.plan, r.column_order)
        })
        .collect();
    /// Stops the spinner however the searches end, so the scope can join.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut x = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        });
        let _stop = Stop(&stop);
        let mut scratch = SearchScratch::default();
        for _ in 0..20 {
            for (inst, want) in instances.iter().zip(&first) {
                let r = optimal(inst, &model, true, &mut scratch).expect("non-empty key");
                assert_eq!((&r.plan, &r.column_order), (&want.0, &want.1));
            }
        }
    });
}

/// A zero-width column adds no bits: the search still returns a valid
/// plan and a full column order, in either mode.
#[test]
fn zero_width_columns_still_plan() {
    let mut inst = SortInstance::uniform(1 << 12, &[(0, 1.0), (5, 20.0), (0, 1.0), (7, 100.0)]);
    inst.want_final_groups = false;
    let mut scratch = SearchScratch::default();
    for model in models() {
        for free in [false, true] {
            let r = optimal(&inst, &model, free, &mut scratch).expect("non-empty key");
            assert!(r.plan.validate(12).is_ok(), "{}", r.plan);
            let mut sorted = r.column_order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3]);
        }
    }
}
