//! The benchmark's contract: every workload and metric name, with its
//! unit, direction, regression bound and the interaction it predicts.
//!
//! `BENCHMARK.json` at the repo root declares the same names; the test
//! at the bottom keeps the two in lockstep. Later issues cite these
//! names, so they only ever grow.

/// A metric improves when it goes…
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// …down.
    Lower,
    /// …up.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// Contract name.
    pub name: &'static str,
    /// Base row count handed to the generators.
    pub rows: usize,
    /// Engine `threads` (intra-query workers).
    pub threads: usize,
    /// Whether every op does exactly the same work, so that per-op
    /// counts must repeat exactly between runs: in-process, one thread,
    /// plans pinned.
    pub exact_counts: bool,
    /// What one op replays.
    pub script: &'static str,
    /// Why the workload exists (one line; also `BENCHMARK.json`'s `why`).
    pub why: &'static str,
}

/// The six workloads. All are closed loop: the next op starts when the
/// previous one has been answered.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "sort_wide",
        exact_counts: true,
        rows: 1 << 19,
        threads: 1,
        script: "ORDER BY all columns of micro Ex1 (10+17 bit), Ex3 (17+33), Ex4 (48+48) via Session::query; ROGA searched to completion, warm plan cache, no budget",
        why: "out-of-cache sorts in all three banks: simd-sort + core do the work, wire/server/extsort/morsel none; where a kernel or merge change must show",
    },
    WorkloadSpec {
        name: "analytic_mix",
        exact_counts: true,
        rows: 1 << 17,
        threads: 1,
        script: "all 27 suite queries (tpch, tpch_skew, tpcds, airline; two-stage ones as both stages), in-process, warm plan cache",
        why: "paper Fig. 9: filter scan, gather, aggregate and window rank carry weight beside the sort; catches a sort win that costs GROUP BY / PARTITION BY",
    },
    WorkloadSpec {
        name: "par_skew",
        exact_counts: false,
        rows: 1 << 20,
        threads: 2,
        script: "ORDER BY of the balanced and the skewed (95% one group) 6+17-bit instances via Session::query at threads=2",
        why: "only workload where morsel queues, steals and split-group finisher merges run; sort_wide (threads=1) is its bypass",
    },
    WorkloadSpec {
        name: "spill_sort",
        exact_counts: true,
        rows: 1 << 19,
        threads: 1,
        script: "ORDER BY nation, ship_date DESC, price under memory_budget = key_bytes/8: run files written, then k-way merged",
        why: "the sort layer used the other way, through extsort's write and read path; every other workload runs with no budget and is its bypass",
    },
    WorkloadSpec {
        name: "small_adhoc",
        exact_counts: false,
        rows: 1 << 12,
        threads: 1,
        script: "the 27 suite queries at 4096 base rows, in-process, ROGA rho=0.1%, plan cache capacity 0 (always miss)",
        why: "tiny sorts: per-query fixed cost (stats + ROGA search, allocations, arena lease, telemetry mutex) dominates; the planner runs cold here, warm elsewhere",
    },
    WorkloadSpec {
        name: "small_remote",
        exact_counts: false,
        rows: 1 << 14,
        threads: 1,
        script: "over loopback MCSQ: tpch_q1 (6-row result) then the 3-key ORDER BY (128 KiB result); 2 connections, one Client each, server in the generator process",
        why: "wire codec, socket path, READ_POLL, gate and thread-per-connection dominate; two result sizes separate per-request from per-byte cost",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric: what a caller of the system sees.
#[derive(Debug)]
pub struct EndToEnd {
    /// Contract name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Definition.
    pub what: &'static str,
}

/// The end-to-end metrics, reported for every workload with tracing off.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "data generation + registration + session/server start + warm-up ops; median of the set-ups made in one run",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median op wall time, clock read outside the engine call",
    },
    EndToEnd {
        name: "op_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "90th-percentile op wall time",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        what: "correct ops completed / timed wall, all connections",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        what: "process utime+stime over the timed section / ops",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        what: "heap allocations per op (median op in-process; section total / ops over loopback)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        what: "VmHWM of the workload's process at exit",
    },
];

/// One per-layer metric (layer = crate name before the first dot).
#[derive(Debug)]
pub struct PerLayer {
    /// Contract name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SORT_MOVES: &str =
    "op_ms_p50 on sort_wide (most of the op), less on analytic_mix, ~0 on small_remote";
const KERNEL_MOVES: &str = "op_ms_p50 on sort_wide, par_skew";
const COUNT_MOVES: &str = "explains simd-sort.sort_ms; a plan change shows as a count change";
const CORE_MOVES: &str =
    "op_ms_p50 on sort_wide; core.*_ms + simd-sort.sort_ms sum to core.mcs_span_ms within 5%";
const MORSEL_MOVES: &str = "op_ms_p50, cpu_ms_per_op on par_skew; zero on every threads=1 workload";
const EXTSORT_MOVES: &str = "op_ms_p50 on spill_sort; runs = 0 everywhere else";
const PLANNER_MOVES: &str =
    "op_ms_p50 on small_adhoc (hit ratio 0); nothing on warm workloads (hit ratio 1)";
const ENGINE_MOVES: &str = "op_ms_p50, allocs_per_op on small_adhoc, small_remote";
const WIRE_MOVES: &str = "op_ms_p50 on small_remote (large-result half)";
const SERVING_MOVES: &str = "op_ms_p50, ops_per_s on small_remote; nothing in-process";

/// The per-layer metrics, reported for every workload by the traced run
/// (zero where the layer does no work on that workload — which is the
/// bypass prediction, not a gap).
pub const PER_LAYER: [PerLayer; 61] = [
    layer("simd-sort.sort_ms", "ms", Lower, SORT_MOVES),
    layer("simd-sort.phase_in_register_ms", "ms", Lower, SORT_MOVES),
    layer("simd-sort.phase_in_cache_ms", "ms", Lower, SORT_MOVES),
    layer("simd-sort.phase_multiway_ms", "ms", Lower, SORT_MOVES),
    layer("simd-sort.kernel_melem_per_s.u16", "Melem/s", Higher, KERNEL_MOVES),
    layer("simd-sort.kernel_melem_per_s.u32", "Melem/s", Higher, KERNEL_MOVES),
    layer("simd-sort.kernel_melem_per_s.u64", "Melem/s", Higher, KERNEL_MOVES),
    layer("simd-sort.codes_sorted", "count", Lower, COUNT_MOVES),
    layer("simd-sort.invocations", "count", Lower, COUNT_MOVES),
    layer("simd-sort.merge_comparisons", "count", Lower, COUNT_MOVES),
    layer("simd-sort.ovc_hit_ratio", "ratio", Higher, COUNT_MOVES),
    layer("core.massage_ms", "ms", Lower, CORE_MOVES),
    layer("core.lookup_ms", "ms", Lower, CORE_MOVES),
    layer("core.scan_ms", "ms", Lower, CORE_MOVES),
    layer("core.rounds", "count", Lower, CORE_MOVES),
    layer("core.unattributed_ms", "ms", Lower, CORE_MOVES),
    layer("core.mcs_span_ms", "ms", Lower, CORE_MOVES),
    layer("core.parts_over_span", "ratio", Higher, CORE_MOVES),
    layer("core.round_loop_allocs", "count", Lower, "allocs_per_op on sort_wide"),
    layer("core.arena_bytes_peak", "bytes", Lower, "peak_rss_mb on sort_wide"),
    layer("morsel.dispatched", "count", Lower, MORSEL_MOVES),
    layer("morsel.stolen", "count", Lower, MORSEL_MOVES),
    layer("morsel.split", "count", Lower, MORSEL_MOVES),
    layer("morsel.steal_ratio", "ratio", Lower, MORSEL_MOVES),
    layer("morsel.speedup_vs_serial", "ratio", Higher, MORSEL_MOVES),
    layer("extsort.runs", "count", Lower, EXTSORT_MOVES),
    layer("extsort.spill_bytes", "bytes", Lower, EXTSORT_MOVES),
    layer("extsort.write_amp", "ratio", Lower, EXTSORT_MOVES),
    layer("extsort.merge_comparisons", "count", Lower, EXTSORT_MOVES),
    layer("extsort.merge_ovc_hit_ratio", "ratio", Higher, EXTSORT_MOVES),
    layer("extsort.self_ms", "ms", Lower, EXTSORT_MOVES),
    layer("extsort.sort_ms", "ms", Lower, EXTSORT_MOVES),
    layer("extsort.spill_penalty", "ratio", Lower, EXTSORT_MOVES),
    layer("planner.search_us", "us", Lower, PLANNER_MOVES),
    layer("planner.cache_hit_ratio", "ratio", Higher, PLANNER_MOVES),
    layer("planner.roga_us", "us", Lower, PLANNER_MOVES),
    layer(
        "cost.pred_over_actual_p50",
        "ratio",
        Lower,
        "none directly; target is 1.0 — drift explains a plan-choice regression on sort_wide / analytic_mix",
    ),
    layer("columnar.filter_scan_ms", "ms", Lower, "op_ms_p50 on analytic_mix"),
    layer("columnar.gather_ms", "ms", Lower, "op_ms_p50 on analytic_mix"),
    layer("engine.aggregate_ms", "ms", Lower, "op_ms_p50 on analytic_mix"),
    layer("engine.post_sort_ms", "ms", Lower, "op_ms_p50 on analytic_mix"),
    layer("engine.materialize_ms", "ms", Lower, "op_ms_p50 on analytic_mix, small_adhoc"),
    layer("engine.unattributed_ms", "ms", Lower, ENGINE_MOVES),
    layer("engine.session_overhead_us", "us", Lower, ENGINE_MOVES),
    layer("engine.allocs_per_query", "count", Lower, ENGINE_MOVES),
    layer("engine.wire_encode_us", "us", Lower, WIRE_MOVES),
    layer("engine.wire_decode_us", "us", Lower, WIRE_MOVES),
    layer("engine.wire_resp_bytes", "bytes", Lower, WIRE_MOVES),
    layer("client.rtt_us_p50", "us", Lower, SERVING_MOVES),
    layer("client.rtt_us_p99", "us", Lower, "op_ms_p90 on small_remote"),
    layer("server.residual_us", "us", Lower, SERVING_MOVES),
    layer("server.connect_ms", "ms", Lower, "setup_s on small_remote"),
    layer("server.shutdown_ms", "ms", Lower, "nothing timed; READ_POLL shows here first"),
    layer("server.shed_ratio", "ratio", Lower, "failed ops on small_remote"),
    layer("spine.op_ms_p50", "ms", Lower, "the traced run's own op_ms_p50"),
    layer("spine.op_ms_p99", "ms", Lower, "tail of small_adhoc, small_remote (>= 1000 ops)"),
    layer("spine.op_samples", "count", Higher, "sample count behind the traced percentiles"),
    layer("spine.layers_over_op", "ratio", Higher, "named layer times / op wall: the part of an op the budget explains"),
    layer("spine.trace_overhead_ratio", "ratio", Lower, "must stay < 1.05 or the trace is not trusted"),
    layer("spine.steal_ratio", "ratio", Lower, "share of the machine's CPU time the host took during the traced ops: how far to trust this run's timings"),
    layer("spine.verify_s", "s", Lower, "the benchmark's own oracle check; outside setup_s"),
];

/// `spine list`: every name this benchmark emits, one per line, as
/// `kind<TAB>name<TAB>unit<TAB>better<TAB>bound-and-definition-or-moves`.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!(
            "workload\t{}\trows={}\tthreads={}\t{}\n",
            w.name, w.rows, w.threads, w.why
        ));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end\t{}\t{}\t{}\tbound={}\t{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    for m in &PER_LAYER {
        out.push_str(&format!(
            "per_layer\t{}\t{}\t{}\tmoves: {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    /// Whether `name` obeys the contract's character set and length.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .items()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    /// The names `spine list` prints for one kind.
    fn listed(kind: &str) -> Vec<String> {
        list()
            .lines()
            .filter_map(|l| {
                let mut f = l.split('\t');
                (f.next() == Some(kind)).then(|| f.next().unwrap().to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_names_spine_emits() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");

        let workloads = declared(&doc, "workloads");
        assert_eq!(
            workloads.iter().map(|w| w.0.clone()).collect::<Vec<_>>(),
            listed("workload")
        );
        for (w, spec) in doc.get("workloads").unwrap().items().iter().zip(&WORKLOADS) {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(spec.why));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }

        let e2e = declared(&doc, "end_to_end");
        assert_eq!(
            e2e.iter().map(|m| m.0.clone()).collect::<Vec<_>>(),
            listed("end_to_end")
        );
        for ((_, unit, better), (decl, spec)) in e2e.iter().zip(
            doc.get("end_to_end")
                .unwrap()
                .items()
                .iter()
                .zip(&END_TO_END),
        ) {
            assert_eq!(
                (unit.as_str(), better.as_str()),
                (spec.unit, spec.better.as_str())
            );
            assert_eq!(decl.get("bound").and_then(Json::as_f64), Some(spec.bound));
            assert!(spec.bound > 0.0 && spec.bound <= 0.25);
        }

        let layers = declared(&doc, "per_layer");
        assert_eq!(
            layers.iter().map(|m| m.0.clone()).collect::<Vec<_>>(),
            listed("per_layer")
        );
        for ((_, unit, better), spec) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (unit.as_str(), better.as_str()),
                (spec.unit, spec.better.as_str())
            );
        }

        assert!(doc.get("paths").unwrap().items() == [Json::Str("spine".into())]);
    }

    #[test]
    fn names_obey_the_contract_limits() {
        assert!(WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("1/s"));
    }
}
