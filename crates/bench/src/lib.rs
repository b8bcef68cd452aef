//! # mcs-bench
//!
//! Shared plumbing for the experiment harnesses that regenerate every
//! table and figure of the paper's evaluation (§6). Each harness is a
//! binary under `src/bin/`; run e.g.
//!
//! ```text
//! cargo run --release -p mcs-bench --bin fig4_hill
//! ```
//!
//! Environment knobs (all optional):
//! * `MCS_ROWS` — base row count for workload generation (default
//!   harness-specific, laptop-scale);
//! * `MCS_CALIBRATE=1` — calibrate the cost model on this machine instead
//!   of using canned constants (slower startup, better rankings);
//! * `MCS_SEED` — RNG seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use mcs_core::{ExecConfig, SortConfig, SortKernel};
use mcs_cost::{calibrate, CalibrationOptions, CostModel, MachineSpec};
use mcs_engine::{EngineConfig, ExplainReport, PlannerMode, QueryTimings};

/// Read an env var as usize.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Base row count (`MCS_ROWS`).
pub fn rows(default: usize) -> usize {
    env_usize("MCS_ROWS", default)
}

/// RNG seed (`MCS_SEED`).
pub fn seed() -> u64 {
    env_usize("MCS_SEED", 42) as u64
}

/// Wall-clock one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed())
}

/// The cost model for the paper's experiments: calibrated when
/// `MCS_CALIBRATE=1`, canned defaults otherwise (calibration takes ~1 min
/// on one core); pricing the paper's SIMD merge-sort
/// ([`SortKernel::MergeSort`]) — the subject of every figure and table —
/// so it pairs with [`paper_exec`].
pub fn cost_model() -> CostModel {
    let mut m = if std::env::var("MCS_CALIBRATE").as_deref() == Ok("1") {
        eprintln!("[mcs-bench] calibrating cost model (MCS_CALIBRATE=1)…");
        let m = calibrate(MachineSpec::detect(), &CalibrationOptions::default());
        eprintln!("[mcs-bench] calibration done: {:#?}", m.consts);
        m
    } else {
        CostModel::with_defaults()
    };
    m.kernel = SortKernel::MergeSort;
    m
}

/// Executor settings of the paper-figure bins: the paper's SIMD
/// merge-sort, not the default size-driven kernel dispatch.
pub fn paper_exec() -> ExecConfig {
    ExecConfig {
        sort: SortConfig {
            kernel: SortKernel::MergeSort,
            ..SortConfig::default()
        },
        ..ExecConfig::default()
    }
}

/// Engine configs: (massaging ON via the exact plan search, massaging
/// OFF), both running the sort kernel `model` prices.
pub fn engine_pair(model: &CostModel) -> (EngineConfig, EngineConfig) {
    let pair = |planner| {
        EngineConfig::builder()
            .planner(planner)
            .model(model.clone())
            .kernel(model.kernel)
            .build()
    };
    (
        pair(PlannerMode::Roga { rho: None }),
        pair(PlannerMode::ColumnAtATime),
    )
}

/// Render an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<w$}", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Whether `MCS_EXPLAIN=1`: bench bins print an EXPLAIN-style plan
/// report (predicted vs. measured per-round cost) for each query stage.
pub fn explain_enabled() -> bool {
    std::env::var("MCS_EXPLAIN").as_deref() == Ok("1")
}

/// When `MCS_EXPLAIN=1`, print an [`ExplainReport`] for every stage of a
/// bench query that ran a multi-column sort.
pub fn maybe_explain(name: &str, stages: &[QueryTimings], model: &CostModel) {
    if !explain_enabled() {
        return;
    }
    for (i, t) in stages.iter().enumerate() {
        let label = if stages.len() > 1 {
            format!("{name} (stage {})", i + 1)
        } else {
            name.to_string()
        };
        match ExplainReport::from_timings(&label, t, model) {
            Some(rep) => println!("\n{}", rep.render()),
            None => println!("\nEXPLAIN mcs: {label}\n  (no multi-column sort executed)"),
        }
    }
}

/// Drain collected telemetry into `results/telemetry/<run>.jsonl`
/// (machine-readable run report). No-op when the workspace was built with
/// telemetry off (`--no-default-features`).
pub fn export_telemetry(run: &str) {
    if !mcs_telemetry::is_enabled() {
        return;
    }
    match mcs_telemetry::write_run_report("results/telemetry", run) {
        Ok(p) => eprintln!("[mcs-bench] telemetry run report: {}", p.display()),
        Err(e) => eprintln!("[mcs-bench] telemetry export failed: {e}"),
    }
}

/// Format nanoseconds human-readably (ms with 2 decimals).
pub fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Format a ratio as `N.NNx`.
pub fn speedup(base_ns: u64, new_ns: u64) -> String {
    if new_ns == 0 {
        "inf".into()
    } else {
        format!("{:.2}x", base_ns as f64 / new_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("MCS_NOT_SET_VAR_XYZ", 7), 7);
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(1_500_000), "1.50");
        assert_eq!(speedup(200, 100), "2.00x");
        assert_eq!(speedup(200, 0), "inf");
    }

    #[test]
    fn timing_works() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < 1_000_000_000);
    }
}
