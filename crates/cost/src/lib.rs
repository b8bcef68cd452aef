//! # mcs-cost
//!
//! The architecture-aware, calibrated cost model of §4 of *Fast
//! Multi-Column Sorting in Main-Memory Column-Stores* (SIGMOD'16).
//!
//! `T_mcs`, the estimated CPU time of a multi-column sort under a massage
//! plan, decomposes into:
//!
//! * `T_lookup` (Eq. 3) — random-gather cost, cache-hit-ratio model;
//! * `T_massage` (Eq. 4) — `I_FIP` sequential bit-repacking passes;
//! * `T_sort` (Eqs. 1, 2, 5–8) — per-round segmented SIMD merge-sort:
//!   invocation overhead + in-register + in-cache + out-of-cache terms;
//! * `T_scan` (Eq. 9) — sequential group-boundary extraction.
//!
//! Constants are **calibrated** ([`calibrate`]) by timing controlled
//! micro-experiments and solving the resulting linear systems, as in the
//! paper — not micro-benchmarked individually. Group cardinalities per
//! round come from balls-into-bins estimators over per-column statistics
//! ([`estimate_groups`]).
//!
//! ```
//! use mcs_cost::{CostModel, SortInstance};
//! use mcs_core::MassagePlan;
//!
//! // Ex1: stitching a 10-bit and a 17-bit column beats column-at-a-time.
//! let inst = SortInstance::uniform(1 << 24, &[(10, 1024.0), (17, 8192.0)]);
//! let model = CostModel::with_defaults();
//! let stitched = MassagePlan::from_widths(&[27]);
//! assert!(model.t_mcs(&inst, &stitched) < model.t_mcs(&inst, &inst.p0()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calibrate;
mod estimate;
mod linalg;
mod machine;
mod model;

pub use calibrate::{calibrate, CalibrationOptions};
pub use estimate::{
    birthday_distinct, estimate_groups, estimate_over_prefixes, possible_prefixes, prefix_product,
    GroupEstimate, KeyColumnStats,
};
pub use linalg::{least_squares, least_squares_nonneg, solve};
pub use machine::MachineSpec;
pub use model::{
    BankConstants, CostBreakdown, CostConstants, CostModel, PlanCost, RoundCost, SortInstance,
};
