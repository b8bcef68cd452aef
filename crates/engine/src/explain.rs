//! `EXPLAIN`-style plan reports: the chosen [`MassagePlan`], the cost
//! model's per-round predictions, and — after execution — the measured
//! per-round times with a predicted/actual ratio column.
//!
//! The report exists in two renderings: [`ExplainReport::render`] (full,
//! human-facing) and [`ExplainReport::render_redacted`] (every timing and
//! ratio cell replaced by a fixed placeholder), the latter byte-stable
//! across runs for golden-snapshot testing.

use mcs_core::{ExecStats, MassagePlan, RoundStats, SortKernel};
use mcs_cost::{CostModel, PlanCost, SortInstance};
use mcs_simd_sort::{kernel_for, radix::passes_for_width, SizeKernel};

use crate::pipeline::{KeyWidth, QueryTimings, SpillStats};

/// A predicted-vs-measured account of one executed multi-column sort.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Label shown in the header (query or experiment name).
    pub query: String,
    /// Rows sorted.
    pub rows: usize,
    /// The plan that ran.
    pub plan: MassagePlan,
    /// Per-round predictions from the cost model.
    pub predicted: PlanCost,
    /// The sort family the model priced (and the executor ran).
    pub kernel: SortKernel,
    /// Measured execution statistics.
    pub measured: ExecStats,
    /// Degradation-ladder rungs taken while executing (stable snake_case
    /// labels; empty on the happy path).
    pub degradations: Vec<String>,
    /// Whether every plan came from the session's plan cache (no plan
    /// search ran; see
    /// [`QueryTimings::plan_cached`](crate::QueryTimings::plan_cached)).
    pub plan_cached: bool,
    /// What the budgeted sort path did (all-zero when the sort ran fully
    /// in memory — then no budget line renders).
    pub spilled: SpillStats,
    /// Rows per bucket of the budgeted sort
    /// ([`QueryTimings::bucket_rows`]).
    pub bucket_rows: usize,
    /// Wall-clock the query spent queued in the admission gate before
    /// executing ([`QueryTimings::queue_ns`]; zero when admission was
    /// unbounded — then no `queued:` line renders).
    pub queue_ns: u64,
    /// Per sort key, its declared width and the width sorted
    /// ([`QueryTimings::key_widths`]); the `keys:` line renders only when
    /// some key was sorted at its rank width.
    pub key_widths: Vec<KeyWidth>,
}

impl ExplainReport {
    /// Build a report from a sort instance, the plan that ran on it, and
    /// the executor's measured stats — the path for callers that invoke
    /// `mcs_core::multi_column_sort` directly (bench bins, examples).
    pub fn from_parts(
        query: impl Into<String>,
        inst: &SortInstance,
        plan: &MassagePlan,
        measured: &ExecStats,
        model: &CostModel,
    ) -> ExplainReport {
        ExplainReport {
            query: query.into(),
            rows: inst.rows,
            plan: plan.clone(),
            predicted: model.t_mcs_rounds(inst, plan),
            kernel: model.kernel,
            measured: measured.clone(),
            degradations: Vec::new(),
            plan_cached: false,
            spilled: SpillStats::default(),
            bucket_rows: 0,
            queue_ns: 0,
            key_widths: Vec::new(),
        }
    }

    /// Build a report from an executed query's timings. Returns `None`
    /// when the query ran no multi-column sort (e.g. zero qualifying
    /// rows).
    pub fn from_timings(
        query: impl Into<String>,
        timings: &QueryTimings,
        model: &CostModel,
    ) -> Option<ExplainReport> {
        let plan = timings.plan.as_ref()?;
        let inst = timings.sort_instance.as_ref()?;
        let mut rep = ExplainReport::from_parts(query, inst, plan, &timings.mcs_stats, model);
        rep.degradations = timings
            .degradations
            .iter()
            .map(|r| r.as_str().to_string())
            .collect();
        rep.plan_cached = timings.plan_cached();
        rep.spilled = timings.spilled;
        rep.bucket_rows = timings.bucket_rows;
        rep.queue_ns = timings.queue_ns;
        rep.key_widths = timings.key_widths.clone();
        Some(rep)
    }

    /// Human-facing rendering with real timings.
    pub fn render(&self) -> String {
        self.render_impl(false)
    }

    /// Rendering with every timing/ratio cell replaced by a fixed-width
    /// placeholder; byte-identical across runs for a fixed instance and
    /// plan (structure, widths, banks, groups and invocation counts are
    /// deterministic — wall-clock is not).
    pub fn render_redacted(&self) -> String {
        self.render_impl(true)
    }

    fn render_impl(&self, redact: bool) -> String {
        let t = |ns: f64| -> String {
            if redact {
                "###".to_string()
            } else {
                fmt_ns(ns)
            }
        };
        let ratio = |pred: f64, meas: f64| -> String {
            if redact {
                "###".to_string()
            } else if meas <= 0.0 {
                "-".to_string()
            } else {
                format!("{:.2}", pred / meas)
            }
        };

        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN mcs: {}\nplan {}  rows {}  predicted T_mcs {}  measured {}\n",
            self.query,
            self.plan.notation(),
            self.rows,
            t(self.predicted.total()),
            t(self.measured.total_ns as f64),
        ));
        // Rank-coded keys name what was sorted; a sort of declared widths
        // renders no line, keeping every earlier golden snapshot stable.
        if let Some(line) = key_widths_line(&self.key_widths) {
            out.push_str(&line);
        }
        // Only annotate degraded / cache-served executions: happy-path
        // uncached reports stay byte-identical to the pre-ladder golden
        // snapshots.
        if self.plan_cached {
            out.push_str("plan: cached\n");
        }
        // Gate-queued executions attribute their wait; unqueued ones
        // (everything outside `run_concurrent`) render no line, keeping
        // every pre-gate golden snapshot stable. The wait is wall-clock,
        // so it redacts like a timing.
        if self.queue_ns > 0 {
            out.push_str(&format!(
                "queued: {} in admission gate\n",
                t(self.queue_ns as f64)
            ));
        }
        // Every sort reports the reuse of the arena that served it; stats
        // without arena counters render no line. Grow/reuse counts are
        // deterministic; the byte peak is not, so it redacts like a
        // timing.
        if !self.measured.arena.is_empty() {
            let peak = if redact {
                "###".to_string()
            } else {
                self.measured.arena.bytes_peak.to_string()
            };
            out.push_str(&format!(
                "arena: peak {} bytes, grows {}, reuses {}\n",
                peak, self.measured.arena.grows, self.measured.arena.reuses
            ));
        }
        // Parallel executions (threads > 1 over the parallel cutoff)
        // report the scheduler counters; serial executions dispatch
        // nothing and render no line, keeping every serial golden
        // snapshot stable. Workers own fixed row ranges, so both counts
        // are deterministic for a fixed config and nothing redacts.
        let morsels = self.measured.morsel_counts();
        if morsels.dispatched > 0 {
            out.push_str(&format!(
                "morsels: dispatched {} ({} split)\n",
                morsels.dispatched, morsels.split
            ));
        }
        if !self.degradations.is_empty() {
            out.push_str(&format!("degraded: {}\n", self.degradations.join(" -> ")));
        }
        // Budgeted executions that partitioned report their buckets;
        // in-memory executions render no line, keeping every pre-budget
        // golden snapshot stable. Both numbers are deterministic for a
        // fixed instance and budget.
        if self.spilled.runs > 0 {
            out.push_str(&format!(
                "budget: {} buckets of ≤ {} rows\n",
                self.spilled.runs, self.bucket_rows,
            ));
        }
        out.push_str(&format!(
            "{:<22} {:>5} {:>5} {:>10} {:>10} {:>9}\n",
            "phase", "width", "bank", "predicted", "measured", "pred/act"
        ));
        let row = |phase: &str, width: &str, bank: &str, pred: f64, meas: f64| -> String {
            format!(
                "{:<22} {:>5} {:>5} {:>10} {:>10} {:>9}\n",
                phase,
                width,
                bank,
                t(pred),
                t(meas),
                ratio(pred, meas),
            )
        };

        out.push_str(&row(
            "massage",
            "-",
            "-",
            self.predicted.massage,
            self.measured.massage_ns as f64,
        ));
        for (k, (pc, rs)) in self
            .predicted
            .rounds
            .iter()
            .zip(&self.measured.rounds)
            .enumerate()
        {
            let width = pc.width.to_string();
            let bank = format!("[{}]", pc.bank.bits());
            if k > 0 {
                out.push_str(&row(
                    &format!("R{} lookup", k + 1),
                    &width,
                    &bank,
                    pc.lookup,
                    rs.lookup_ns as f64,
                ));
            }
            out.push_str(&row(
                format!(
                    "R{} sort {}",
                    k + 1,
                    round_kernel(self.kernel, pc.width, rs)
                )
                .trim_end(),
                &width,
                &bank,
                pc.sort,
                rs.sort_ns as f64,
            ));
            for (name, ns) in [
                ("in-register", rs.phases.in_register_ns),
                ("in-cache merge", rs.phases.in_cache_merge_ns),
                ("multiway merge", rs.phases.multiway_merge_ns),
                ("radix", rs.phases.radix_ns),
                ("small sorts", rs.phases.small_sort_ns),
            ] {
                if ns > 0 && !redact {
                    out.push_str(&format!(
                        "{:<22} {:>5} {:>5} {:>10} {:>10} {:>9}\n",
                        format!("   {name}"),
                        "",
                        "",
                        "-",
                        fmt_ns(ns as f64),
                        "-",
                    ));
                }
            }
            // Out-of-cache merge comparison counters (full render only:
            // the counts depend on which groups crossed the cache
            // threshold, which the redacted golden must not pin down).
            if rs.merge.comparisons > 0 && !redact {
                out.push_str(&format!("   merge comparisons {}\n", rs.merge.comparisons));
            }
            if pc.scan > 0.0 || rs.scan_ns > 0 {
                out.push_str(&row(
                    &format!("R{} scan", k + 1),
                    &width,
                    &bank,
                    pc.scan,
                    rs.scan_ns as f64,
                ));
            }
            out.push_str(&format!(
                "   groups {} -> {}, {} sort invocations, {} codes\n",
                rs.groups_in, rs.groups_out, rs.invocations, rs.codes_sorted
            ));
        }
        out.push_str(&row(
            "total",
            "-",
            "-",
            self.predicted.total(),
            self.measured.total_ns as f64,
        ));
        out
    }
}

/// `keys: W 96→26 (c0 48→13, c1 48→13)`: the total declared and sorted
/// key widths, then each rank-coded key; `None` when no key was.
fn key_widths_line(keys: &[KeyWidth]) -> Option<String> {
    let coded: Vec<String> = keys
        .iter()
        .filter(|k| k.sorted != k.declared)
        .map(|k| format!("{} {}→{}", k.column, k.declared, k.sorted))
        .collect();
    if coded.is_empty() {
        return None;
    }
    let declared: u32 = keys.iter().map(|k| k.declared).sum();
    let sorted: u32 = keys.iter().map(|k| k.sorted).sum();
    Some(format!(
        "keys: W {declared}→{sorted} ({})\n",
        coded.join(", ")
    ))
}

/// Name the kernel a round's sort ran, the way the cost model prices it:
/// by the round's mean sorted-group length (`radix×p` = `p` scatter
/// passes, one per live key byte). Empty when the round sorted nothing.
fn round_kernel(kernel: SortKernel, width: u32, rs: &RoundStats) -> String {
    if rs.invocations == 0 {
        return String::new();
    }
    match kernel {
        SortKernel::MergeSort => "mergesort".to_string(),
        SortKernel::Auto => {
            match kernel_for((rs.codes_sorted + rs.invocations / 2) / rs.invocations) {
                SizeKernel::Insertion => "insertion".to_string(),
                SizeKernel::Packed => "packed".to_string(),
                SizeKernel::Radix => format!("radix×{}", passes_for_width(width)),
            }
        }
    }
}

/// Render nanoseconds human-readably (`842 ns`, `12.4 us`, `3.217 ms`).
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} us", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mcs_core::{multi_column_sort, ArenaStats, ExecArena, ExecConfig};

    #[test]
    fn report_lines_up_rounds() {
        let n = 4096usize;
        let a = mcs_columnar::CodeVec::from_u64s(9, (0..n).map(|i| (i as u64 * 37) % 512));
        let b = mcs_columnar::CodeVec::from_u64s(15, (0..n).map(|i| (i as u64 * 101) % 32768));
        let inst = SortInstance::uniform(n, &[(9, 512.0), (15, 16384.0)]);
        let plan = inst.p0();
        let cfg = ExecConfig::default();
        let out = multi_column_sort(
            &[&a, &b],
            None,
            &inst.specs,
            &plan,
            &cfg,
            &mut ExecArena::new(),
        )
        .expect("valid sort instance");
        let model = CostModel::with_defaults();
        let rep = ExplainReport::from_parts("unit", &inst, &plan, &out.stats, &model);
        assert_eq!(rep.predicted.rounds.len(), rep.measured.rounds.len());
        let text = rep.render();
        assert!(text.contains("EXPLAIN mcs: unit"));
        assert!(text.contains("R1 sort"));
        assert!(text.contains("R2 lookup"));
        assert!(text.contains("pred/act"));
        // Redacted rendering hides every timing but keeps the structure.
        let red = rep.render_redacted();
        assert!(red.contains("###"));
        assert!(!red.contains(" ns"));
        assert!(!red.contains(" ms"));
        assert!(red.contains("R2 sort"));
    }

    #[test]
    fn cached_plan_line_renders_only_for_cache_hits() {
        use crate::{Database, EngineConfig, OrderKey, Query, QueryOptions, Session};
        let mut t = mcs_columnar::Table::new("t");
        t.add_column(mcs_columnar::Column::from_u64s(
            "k",
            6,
            (0..256u64).map(|i| (i * 37) % 64),
        ));
        let mut db = Database::new();
        db.register(t);
        let session = Session::new(&db, EngineConfig::default());
        let mut q = Query::named("q");
        q.order_by = vec![OrderKey::asc("k")];
        q.select = vec!["k".into()];
        let model = CostModel::with_defaults();

        let cold = session.query("t", &q, QueryOptions::default()).unwrap();
        let cold_rep = ExplainReport::from_timings("q", &cold.timings, &model).unwrap();
        assert!(!cold_rep.plan_cached);
        assert!(!cold_rep.render().contains("plan: cached"));
        // Session executions run through the arena: the first one grew it.
        assert!(cold_rep.render().contains("bytes, grows 1, reuses 0\n"));

        let warm = session.query("t", &q, QueryOptions::default()).unwrap();
        let warm_rep = ExplainReport::from_timings("q", &warm.timings, &model).unwrap();
        assert!(warm_rep.plan_cached);
        assert!(warm_rep.render().contains("plan: cached\n"));
        // The annotation survives redaction (it carries no timing).
        assert!(warm_rep.render_redacted().contains("plan: cached\n"));
        // The warm rerun reused capacity; the byte peak redacts away.
        assert!(warm_rep.render().contains("grows 1, reuses 1\n"));
        assert!(warm_rep.render_redacted().contains("arena: peak ### bytes"));
    }

    #[test]
    fn keys_line_renders_only_for_rank_coded_keys() {
        use crate::{run_query, EngineConfig, OrderKey, PlannerMode, Query};
        let n = 4096u64;
        let mut t = mcs_columnar::Table::new("t");
        // 6 bits holding all 64 values: sorted at its declared width.
        t.add_column(mcs_columnar::Column::from_u64s(
            "k",
            6,
            (0..n).map(|i| (i * 37) % 64),
        ));
        // 40 bits holding 4 values, 6 bits holding 8: rank-coded.
        t.add_column(mcs_columnar::Column::from_u64s(
            "wide",
            40,
            (0..n).map(|i| (i % 4) << 30),
        ));
        t.add_column(mcs_columnar::Column::from_u64s(
            "few",
            6,
            (0..n).map(|i| (i * 7) % 8 * 8),
        ));
        let model = CostModel::with_defaults();
        let explain = |keys: &[&str], cfg: &EngineConfig| {
            let mut q = Query::named("q");
            q.order_by = keys.iter().map(|&k| OrderKey::asc(k)).collect();
            q.select = vec!["k".into()];
            let r = run_query(&t, &q, cfg).unwrap();
            ExplainReport::from_timings("q", &r.timings, &model).unwrap()
        };
        let cfg = EngineConfig::default();
        let plain = explain(&["k"], &cfg);
        assert!(!plain.render().contains("keys:"));
        assert!(!plain.render_redacted().contains("keys:"));

        let coded = explain(&["wide", "k", "few"], &cfg);
        let line = "keys: W 52→11 (wide 40→2, few 6→3)\n";
        let text = coded.render_redacted();
        assert_eq!(text.lines().nth(2), Some(line.trim_end()), "{text}");
        assert!(coded.render().contains(line));
        // A fixed plan is stated over declared widths: nothing is coded.
        let fixed = PlannerMode::Fixed(MassagePlan::from_widths(&[40, 6, 6]));
        let cfg = EngineConfig::builder().planner(fixed).build();
        assert!(!explain(&["wide", "k", "few"], &cfg)
            .render()
            .contains("keys:"));
    }

    #[test]
    fn stats_without_arena_counters_render_no_arena_line() {
        let n = 1024usize;
        let a = mcs_columnar::CodeVec::from_u64s(9, (0..n).map(|i| (i as u64 * 37) % 512));
        let inst = SortInstance::uniform(n, &[(9, 512.0)]);
        let plan = inst.p0();
        let cfg = ExecConfig::default();
        let out = multi_column_sort(&[&a], None, &inst.specs, &plan, &cfg, &mut ExecArena::new())
            .expect("valid sort instance");
        let stats = ExecStats {
            arena: ArenaStats::default(),
            ..out.stats
        };
        let rep =
            ExplainReport::from_parts("unit", &inst, &plan, &stats, &CostModel::with_defaults());
        assert!(!rep.render().contains("arena:"));
        assert!(!rep.render_redacted().contains("arena:"));
    }

    #[test]
    fn queued_line_renders_only_for_gate_waits() {
        let n = 512usize;
        let a = mcs_columnar::CodeVec::from_u64s(9, (0..n).map(|i| (i as u64 * 37) % 512));
        let inst = SortInstance::uniform(n, &[(9, 512.0)]);
        let plan = inst.p0();
        let cfg = ExecConfig::default();
        let out = multi_column_sort(&[&a], None, &inst.specs, &plan, &cfg, &mut ExecArena::new())
            .expect("valid sort instance");
        let mut rep = ExplainReport::from_parts(
            "unit",
            &inst,
            &plan,
            &out.stats,
            &CostModel::with_defaults(),
        );
        assert!(!rep.render().contains("queued:"), "no gate, no line");
        rep.queue_ns = 12_400;
        assert!(rep.render().contains("queued: 12.4 us in admission gate\n"));
        // The wait is wall-clock: it redacts, the line itself stays.
        assert!(rep
            .render_redacted()
            .contains("queued: ### in admission gate\n"));
    }

    #[test]
    fn morsel_line_renders_only_for_parallel_executions() {
        let n = 20_000usize;
        let a = mcs_columnar::CodeVec::from_u64s(9, (0..n).map(|i| (i as u64 * 37) % 512));
        let inst = SortInstance::uniform(n, &[(9, 512.0)]);
        let plan = inst.p0();
        let model = CostModel::with_defaults();

        let serial_cfg = ExecConfig::default();
        let sort =
            |cfg| multi_column_sort(&[&a], None, &inst.specs, &plan, cfg, &mut ExecArena::new());
        let serial = sort(&serial_cfg).expect("valid sort instance");
        let rep = ExplainReport::from_parts("unit", &inst, &plan, &serial.stats, &model);
        assert!(!rep.render().contains("morsels:"), "serial, no line");

        let cfg = ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        };
        let par = sort(&cfg).expect("valid sort instance");
        assert_eq!(par.oids, serial.oids, "thread count must not leak");
        let rep = ExplainReport::from_parts("unit", &inst, &plan, &par.stats, &model);
        let text = rep.render();
        let m = par.stats.morsel_counts();
        let line = format!("morsels: dispatched {} ({} split)\n", m.dispatched, m.split);
        assert!(
            text.contains(&line),
            "parallel run renders {line:?}: {text}"
        );
        // Both counts are deterministic: the line does not redact.
        assert!(rep.render_redacted().contains(&line));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(850.0), "850 ns");
        assert_eq!(fmt_ns(12_400.0), "12.4 us");
        assert_eq!(fmt_ns(3_217_000.0), "3.217 ms");
    }
}
