//! Armed fault points in the plan search. The fault registry is
//! process-global, so an armed test must not share a binary with unarmed
//! neighbours that would traverse it: this file is its own process. Run
//! it with the fault points live:
//! `cargo test -p mcs-planner --features mcs-faults/enabled --test faults`.

use mcs_cost::{CostModel, SortInstance};
use mcs_faults::{points, with_armed, FireMode};
use mcs_planner::{optimal, roga, RogaOptions, SearchError};

#[test]
fn injected_search_failure_and_starvation() {
    if !mcs_faults::is_enabled() {
        return;
    }
    let inst = SortInstance::uniform(1 << 20, &[(10, 1024.0), (17, 8192.0)]);
    let m = CostModel::with_defaults();

    with_armed(&[(points::PLANNER_SEARCH, FireMode::Always)], || {
        let r = roga(&inst, &m, &RogaOptions::default()).map(|r| r.plans_costed);
        assert_eq!(r, Err(SearchError::Injected(points::PLANNER_SEARCH)));
        for permute_columns in [false, true] {
            let r = optimal(&inst, &m, permute_columns).map(|r| r.plans_costed);
            assert_eq!(r, Err(SearchError::Injected(points::PLANNER_SEARCH)));
        }
    });

    // The exact search prices its plan once through `t_mcs`, so a NaN
    // model still surfaces as a non-finite estimate.
    with_armed(&[(points::COST_NAN, FireMode::Always)], || {
        let r = optimal(&inst, &m, true).expect("NaN costs are not an error");
        assert!(r.est_cost.is_nan());
        assert!(r.plan.validate(inst.total_width()).is_ok());
    });

    with_armed(&[(points::PLANNER_STARVE, FireMode::Always)], || {
        let r = roga(&inst, &m, &RogaOptions::default()).expect("starvation is not an error");
        assert!(r.timed_out);
        assert_eq!(r.plans_costed, 0);
        assert!(!r.est_cost.is_finite());
        // Lemma 1: the starved result still carries a valid plan.
        assert!(r.plan.validate(inst.total_width()).is_ok());
    });
}
