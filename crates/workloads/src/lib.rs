//! # mcs-workloads
//!
//! Workload generators and query definitions for the SIGMOD'16 *Fast
//! Multi-Column Sorting* evaluation (§6):
//!
//! * [`micro`] — the §3 Examples Ex1–Ex4 (Figures 3, 4);
//! * [`mod@tpch`] — mini TPC-H and TPC-H *skew* (Zipf-1) WideTables with the
//!   nine multi-column-sorting queries (Q1, Q2, Q3, Q7, Q9, Q10, Q13,
//!   Q16, Q18);
//! * [`mod@tpcds`] — a TPC-DS store_sales WideTable with the four
//!   PARTITION BY queries (Q67 and three analogs);
//! * [`mod@airline`] — a synthetic stand-in for the DB1B Airline Origin &
//!   Destination Survey (Table 4 schema, Table 5's five queries);
//! * [`suite`] — the multi-stage query runner used by all benchmarks.
//!
//! Substitutions vs. the paper's data sources are listed in DESIGN.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod airline;
pub mod gen;
pub mod micro;
pub mod suite;
pub mod tpcds;
pub mod tpch;

pub use airline::{airline, AirlineParams};
pub use micro::{ex1, ex2, ex3, ex4, MicroInstance};
pub use suite::{
    run_bench_query, run_bench_query_naive, BenchQuery, CombinedTimings, QuerySpec, Workload,
};
pub use tpcds::{tpcds, TpcdsParams};
pub use tpch::{tpch, TpchParams};
