//! # mcs-planner
//!
//! Plan search for code massaging (§5 of the SIGMOD'16 paper):
//!
//! * [`optimal`] — the engine's search: the model's cheapest plan, found
//!   exactly as a shortest path over bit positions (over every column
//!   order too, for GROUP BY / PARTITION BY), with no deadline;
//! * [`roga`] — the paper's **ro**und-based **g**reedy **a**lgorithm
//!   (Algorithm 1): round-count by round-count, valid bank combinations,
//!   exhaustive width assignment for `k ≤ 2`, greedy `T_sort^{j+1}`-
//!   minimizing assignment for `k ≥ 3`, under the time threshold `ρ`;
//! * [`rrs`] — the recursive-random-search baseline of §6.1;
//! * [`measure_all_plans`] — the exhaustive, actually-executed "perfect
//!   model" `A_i` used to compute plan ranks (Table 1, Figure 7);
//! * [`space`] — plan-space combinatorics, including the Lemma 2 round
//!   bound and Property-1 bank-combination pruning.
//!
//! ```
//! use mcs_cost::{CostModel, SortInstance};
//! use mcs_planner::{optimal, roga, RogaOptions};
//!
//! let inst = SortInstance::uniform(1 << 24, &[(17, 8192.0), (33, 8192.0)]);
//! let model = CostModel::with_defaults();
//! let found = roga(&inst, &model, &RogaOptions::default()).expect("non-empty sort key");
//! // The search never does worse than column-at-a-time.
//! assert!(found.est_cost <= model.t_mcs(&inst, &inst.p0()));
//! // The exact search never does worse than ROGA.
//! let best = optimal(&inst, &model, false).expect("non-empty sort key");
//! assert!(best.est_cost <= found.est_cost);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as typed errors, never panic on a
// recoverable path. Test modules opt back in with `#[allow]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod exhaustive;
mod fingerprint;
mod optimal;
mod roga;
mod rrs;
pub mod space;

pub use error::SearchError;
pub use exhaustive::{
    measure_all_plans, measure_plan, rank_by_time, rank_of, ExhaustiveOptions, MeasuredPlan,
};
pub use fingerprint::PlanFingerprint;
pub use optimal::{optimal, MAX_ORDER_COLUMNS};
pub use roga::{permute_instance, roga, RogaOptions, SearchResult};
pub use rrs::{rrs, RrsOptions};
pub use space::{bank_combos, enumerate_compositions, max_rounds, next_order, width_assignments};
