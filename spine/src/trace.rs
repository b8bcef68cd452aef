//! The traced run of one workload: the per-layer numbers.
//!
//! Layers are measured from outside. Ops are replayed with the span
//! recorder around every call into the engine, the `QueryTimings` /
//! `ExecStats` / `SpillStats` each result carries are summed per layer,
//! and a few layers are probed directly through their public functions
//! (`sort_pairs_with`, `multi_column_sort_with`,
//! `external_multi_column_sort_with`, `roga`, `Wire::to_bytes`). An
//! untraced section in the same process gives the tracing overhead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use codemassage::columnar::CodeVec;
use codemassage::core::{multi_column_sort_with, ExecArena, ExecConfig, MassagePlan, SortSpec};
use codemassage::cost::CostModel;
use codemassage::engine::wire::Wire;
use codemassage::engine::{PlannerMode, Query, QueryResult, Session};
use codemassage::extsort::external_multi_column_sort_with;
use codemassage::planner::{roga, RogaOptions};
use codemassage::simd_sort::{sort_pairs_with, SortConfig, SortableKey};
use mcs_test_support::{thread_allocation_count, Rng};

use crate::json::{obj, Json};
use crate::measure::{
    gate_failed, set_up, timed, warm_up, Outcome, RunArgs, Section, Target, WARM_UP_OPS,
};
use crate::runner::{local_op, session, verify, Recorder};
use crate::spec::{WorkloadSpec, PER_LAYER};
use crate::stats::{median, self_times, Span};
use crate::workloads::Instance;

/// Pairs per bank in the kernel probe.
const KERNEL_PAIRS: usize = 1 << 19;
/// Alternating untraced / traced slices the sections are cut into.
const SLICES: usize = 3;
/// Repetitions of each direct probe; the median is reported.
const PROBE_REPS: usize = 5;

/// Per-layer sums over the traced ops, from the values the public API
/// returns with each result.
#[derive(Default)]
struct LayerSums {
    ops: u64,
    queries: u64,
    op_ns: f64,
    sort_ns: u64,
    in_register_ns: u64,
    in_cache_ns: u64,
    multiway_ns: u64,
    codes_sorted: u64,
    invocations: u64,
    merge_comparisons: u64,
    merge_ovc_hits: u64,
    massage_ns: u64,
    lookup_ns: u64,
    scan_ns: u64,
    rounds: u64,
    round_loop_allocs: u64,
    dispatched: u64,
    stolen: u64,
    split: u64,
    spill_runs: u64,
    spill_bytes: u64,
    spill_comparisons: u64,
    spill_ovc_hits: u64,
    plan_search_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    filter_ns: u64,
    gather_ns: u64,
    aggregate_ns: u64,
    post_sort_ns: u64,
    mcs_ns: u64,
    /// `mcs_ns` minus massage + lookup + sort + scan, for in-memory sorts…
    core_rest_ns: u64,
    /// …and for spilled ones, where it is the run-file write and merge.
    extsort_rest_ns: u64,
    total_ns: u64,
    /// Cost-model prediction / measured `mcs_ns`, one per sorted query.
    pred_over_actual: Vec<f64>,
}

impl LayerSums {
    fn add_op(&mut self, results: &[QueryResult], op_ms: f64, model: &CostModel) {
        self.ops += 1;
        self.op_ns += op_ms * 1e6;
        for r in results {
            let t = &r.timings;
            self.queries += 1;
            for round in &t.mcs_stats.rounds {
                self.sort_ns += round.sort_ns;
                self.lookup_ns += round.lookup_ns;
                self.scan_ns += round.scan_ns;
                self.in_register_ns += round.phases.in_register_ns;
                self.in_cache_ns += round.phases.in_cache_merge_ns;
                self.multiway_ns += round.phases.multiway_merge_ns;
                self.codes_sorted += round.codes_sorted as u64;
                self.invocations += round.invocations as u64;
                self.merge_comparisons += round.merge.comparisons;
                self.merge_ovc_hits += round.merge.ovc_hits;
            }
            self.rounds += t.mcs_stats.rounds.len() as u64;
            self.massage_ns += t.mcs_stats.massage_ns;
            let st = &t.mcs_stats;
            let named = st.massage_ns + st.lookup_ns() + st.sort_ns() + st.scan_ns();
            if t.spilled.runs > 0 {
                self.extsort_rest_ns += t.mcs_ns.saturating_sub(named);
            } else {
                self.core_rest_ns += t.mcs_ns.saturating_sub(named);
            }
            self.round_loop_allocs += t.mcs_stats.round_loop_allocs.unwrap_or(0);
            let m = t.mcs_stats.morsel_counts();
            self.dispatched += m.dispatched;
            self.stolen += m.stolen;
            self.split += m.split;
            self.spill_runs += t.spilled.runs;
            self.spill_bytes += t.spilled.bytes;
            self.spill_comparisons += t.spilled.merge_comparisons;
            self.spill_ovc_hits += t.spilled.merge_ovc_hits;
            self.plan_search_ns += t.plan_search_ns;
            self.cache_hits += u64::from(t.plan_cache_hits);
            self.cache_misses += u64::from(t.plan_cache_misses);
            self.filter_ns += t.filter_scan_ns;
            self.gather_ns += t.gather_ns;
            self.aggregate_ns += t.aggregate_ns;
            self.post_sort_ns += t.post_sort_ns;
            self.mcs_ns += t.mcs_ns;
            self.total_ns += t.total_ns;
            if let (Some(plan), Some(inst)) = (&t.plan, &t.sort_instance) {
                if t.mcs_ns > 0 {
                    let pred = model.t_mcs_rounds(inst, plan).total();
                    self.pred_over_actual.push(pred / t.mcs_ns as f64);
                }
            }
        }
    }

    /// ns summed over the traced ops → ms per op.
    fn ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// A counter summed over the traced ops → per op.
    fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.ops.max(1) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `f`, ms, over [`PROBE_REPS`] runs after one
/// unrecorded run (which grows whatever arena `f` reuses).
fn probe_ms(mut f: impl FnMut()) -> f64 {
    f();
    let runs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    median(&runs)
}

/// `sort_pairs_with` on [`KERNEL_PAIRS`] seeded pairs of one bank, in
/// million elements per second.
fn kernel_melem_per_s<K: SortableKey + Copy>(seed: u64, key: impl Fn(u64) -> K) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    let keys: Vec<K> = (0..KERNEL_PAIRS).map(|_| key(rng.next_u64())).collect();
    let oids: Vec<u32> = (0..KERNEL_PAIRS as u32).collect();
    let cfg = SortConfig::default();
    let (mut k, mut o) = (keys.clone(), oids.clone());
    let runs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            k.copy_from_slice(&keys);
            o.copy_from_slice(&oids);
            let t = Instant::now();
            sort_pairs_with(&mut k, &mut o, &cfg);
            let ms = ms_since(t);
            black_box(&k);
            ms
        })
        .collect();
    KERNEL_PAIRS as f64 / 1e3 / median(&runs)
}

/// The sort one unfiltered `ORDER BY` step runs, as the core layer sees
/// it: the table's own key columns, the specs, and the plan the engine
/// executed (pure `ORDER BY` never permutes columns).
struct SortCall<'a> {
    cols: Vec<&'a CodeVec>,
    specs: Vec<SortSpec>,
    plan: MassagePlan,
}

fn sort_calls<'a>(inst: &'a Instance, reference: &[QueryResult]) -> Vec<SortCall<'a>> {
    let pure_order_by =
        |q: &Query| q.filters.is_empty() && q.group_by.is_empty() && q.partition_by.is_empty();
    inst.steps
        .iter()
        .zip(reference)
        .filter(|(step, _)| pure_order_by(&step.query))
        .filter_map(|(step, r)| {
            let table = inst.db.table(&step.table)?;
            let mut cols = Vec::new();
            let mut specs = Vec::new();
            for k in &step.query.order_by {
                let c = table.column(&k.column)?;
                cols.push(c.codes());
                specs.push(SortSpec {
                    width: c.width(),
                    descending: k.descending,
                });
            }
            Some(SortCall {
                cols,
                specs,
                plan: r.timings.plan.clone()?,
            })
        })
        .collect()
}

/// Spans around `multi_column_sort_with` for every pure `ORDER BY` of
/// the script: `(span ms, massage + lookup + sort + scan ms)` per op.
fn core_probe(calls: &[SortCall<'_>], exec: &ExecConfig) -> (f64, f64) {
    let mut exec = exec.clone();
    exec.memory_budget_bytes = None;
    let (mut span, mut parts) = (0.0, 0.0);
    for call in calls {
        let mut arena = ExecArena::new();
        let mut samples = Vec::new();
        for rep in 0..=PROBE_REPS {
            let t = Instant::now();
            let out =
                multi_column_sort_with(&call.cols, &call.specs, &call.plan, &exec, &mut arena);
            let ms = ms_since(t);
            let Ok(out) = out else { return (0.0, 0.0) };
            let s = &out.stats;
            if rep > 0 {
                let named = s.massage_ns + s.lookup_ns() + s.sort_ns() + s.scan_ns();
                samples.push((ms, named as f64 / 1e6));
            }
        }
        span += median(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
        parts += median(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    }
    (span, parts)
}

/// Span around `external_multi_column_sort_with` under the workload's
/// budget, ms per op (0 when the workload has no budget).
fn extsort_probe(calls: &[SortCall<'_>], exec: &ExecConfig) -> f64 {
    let Some(budget) = exec.memory_budget_bytes else {
        return 0.0;
    };
    calls
        .iter()
        .map(|call| {
            let mut arena = ExecArena::new();
            probe_ms(|| {
                black_box(
                    external_multi_column_sort_with(
                        &call.cols,
                        &call.specs,
                        &call.plan,
                        exec,
                        &mut arena,
                        budget,
                    )
                    .is_ok(),
                );
            })
        })
        .sum()
}

/// Span around `roga()` — under the workload's own search deadline — on
/// every sort instance of the script, µs per op.
fn roga_probe(inst: &Instance, reference: &[QueryResult]) -> f64 {
    let PlannerMode::Roga { rho } = inst.engine.planner else {
        return 0.0;
    };
    inst.steps
        .iter()
        .zip(reference)
        .filter_map(|(step, r)| {
            let sort_inst = r.timings.sort_instance.as_ref()?;
            let opts = RogaOptions {
                rho,
                permute_columns: step.query.order_free(),
            };
            let t = Instant::now();
            black_box(roga(sort_inst, &inst.engine.model, &opts).is_ok());
            Some(1e3 * ms_since(t))
        })
        .sum()
}

/// Spans around `Wire::to_bytes` / `from_bytes` for each request and
/// result of the script: `(encode µs, decode µs, response bytes)` per op.
fn wire_probe(inst: &Instance, reference: &[QueryResult]) -> (f64, f64, f64) {
    let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0.0);
    for (step, r) in inst.steps.iter().zip(reference) {
        let req = step.query.to_bytes();
        let resp = r.to_bytes();
        bytes += resp.len() as f64;
        enc += 1e3
            * probe_ms(|| {
                black_box(step.query.to_bytes());
                black_box(r.to_bytes());
            });
        dec += 1e3
            * probe_ms(|| {
                black_box(Query::from_bytes(&req).is_ok());
                black_box(QueryResult::from_bytes(&resp).is_ok());
            });
    }
    (enc, dec, bytes)
}

/// Sum of the durations of every span called `name`, ns.
fn span_total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Write the spans as JSON lines, one per span, with self time.
fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let line = obj([
            ("id", i.into()),
            ("name", s.name.into()),
            ("op", s.op.into()),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
            ("self_ns", self_ns.into()),
        ]);
        writeln!(w, "{}", line.compact())?;
    }
    w.flush()
}

/// The traced run: every per-layer metric of `spec`. The spans of the
/// traced section are written to `out_dir/trace-<workload>.jsonl`.
pub fn run(spec: &WorkloadSpec, args: RunArgs, out_dir: &Path) -> Outcome {
    let fail = |reason: String| gate_failed(&format!("trace of {}: {reason}", spec.name));
    let mut ready = match set_up(spec, args.seed) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    // The traced session additionally reports what its round loops
    // allocate; nothing else differs from the untraced configuration.
    ready.inst.engine.exec.alloc_probe = Some(thread_allocation_count);
    let inst = &ready.inst;
    let sess = session(inst);
    if let Err(e) = warm_up(inst, &sess, ready.remote.as_mut()) {
        return fail(e);
    }
    let t = Instant::now();
    let expected = match verify(inst, &sess, ready.remote.as_mut()) {
        Ok(d) => d,
        Err(e) => return fail(e),
    };
    let verify_s = t.elapsed().as_secs_f64();
    let mut off = Recorder::new(false);
    let reference = match local_op(&sess, &inst.steps, &mut off, 0) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };

    // Untraced and traced sections on the workload's own path, in
    // alternating slices so that slow drift of the machine hits both
    // alike. The engine-side sums come from in-process traced ops: over
    // loopback the results carry no timings, so the same script is also
    // replayed through a local session, and that replay's op time is
    // what the serving path is charged against.
    let mut sums = LayerSums::default();
    let model = &inst.engine.model;
    let mut rec = Recorder::new(true);
    let (mut baseline, mut engine_side, mut serving) =
        (Section::default(), Section::default(), Section::default());
    let slice = args.seconds / SLICES as f64;
    for _ in 0..SLICES {
        let mut add_op = |r: &[QueryResult], ms| sums.add_op(r, ms, model);
        match ready.remote.as_mut() {
            None => {
                let local = || Target::Local(&sess);
                baseline.absorb(timed(
                    inst,
                    local(),
                    expected,
                    slice * 0.3,
                    &mut off,
                    |_, _| {},
                ));
                engine_side.absorb(timed(
                    inst,
                    local(),
                    expected,
                    slice * 0.4,
                    &mut rec,
                    add_op,
                ));
            }
            Some(remote) => {
                let quiet = |_: &[QueryResult], _| {};
                baseline.absorb(timed(
                    inst,
                    Target::Remote(remote),
                    expected,
                    slice * 0.25,
                    &mut off,
                    quiet,
                ));
                serving.absorb(timed(
                    inst,
                    Target::Remote(remote),
                    expected,
                    slice * 0.3,
                    &mut rec,
                    quiet,
                ));
                engine_side.absorb(timed(
                    inst,
                    Target::Local(&sess),
                    expected,
                    slice * 0.2,
                    &mut rec,
                    &mut add_op,
                ));
            }
        }
    }
    let own = if inst.connections > 0 {
        &serving
    } else {
        &engine_side
    };
    let mut attempted = baseline.attempted + engine_side.attempted + serving.attempted;
    let mut failed = baseline.failed + engine_side.failed + serving.failed;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut shutdown_ms = 0.0;
    if let Some(remote) = ready.remote.take() {
        let traced = &serving;
        let (enc, dec, bytes) = wire_probe(inst, &reference);
        let rtt_p50 = traced.percentile(50.0) * 1e3;
        m.insert("engine.wire_encode_us", enc);
        m.insert("engine.wire_decode_us", dec);
        m.insert("engine.wire_resp_bytes", bytes);
        m.insert("client.rtt_us_p50", rtt_p50);
        m.insert("client.rtt_us_p99", traced.percentile(99.0) * 1e3);
        m.insert(
            "server.residual_us",
            rtt_p50 - engine_side.percentile(50.0) * 1e3 - enc - dec,
        );
        m.insert("server.connect_ms", median(&remote.connect_ms));
        m.insert(
            "server.shed_ratio",
            ratio(traced.failed as f64, traced.attempted as f64),
        );
        shutdown_ms = remote.stop();
    }
    m.insert("server.shutdown_ms", shutdown_ms);

    // The same op at threads=1, for the parallel speed-up.
    if inst.engine.exec.threads > 1 {
        let mut engine = inst.engine.clone();
        engine.exec.threads = 1;
        let serial = Session::new(&inst.db, engine);
        for _ in 0..WARM_UP_OPS {
            if let Err(e) = local_op(&serial, &inst.steps, &mut off, 0) {
                return fail(e);
            }
        }
        let s = timed(
            inst,
            Target::Local(&serial),
            expected,
            args.seconds * 0.2,
            &mut off,
            |_, _| {},
        );
        attempted += s.attempted;
        failed += s.failed;
        m.insert(
            "morsel.speedup_vs_serial",
            ratio(s.percentile(50.0), baseline.percentile(50.0)),
        );
    }

    // Direct probes of single layers.
    m.insert(
        "simd-sort.kernel_melem_per_s.u16",
        kernel_melem_per_s(args.seed, |r| r as u16),
    );
    m.insert(
        "simd-sort.kernel_melem_per_s.u32",
        kernel_melem_per_s(args.seed, |r| r as u32),
    );
    m.insert(
        "simd-sort.kernel_melem_per_s.u64",
        kernel_melem_per_s(args.seed, |r| r),
    );
    let calls = sort_calls(inst, &reference);
    let (span_ms, parts_ms) = core_probe(&calls, &inst.engine.exec);
    m.insert("core.mcs_span_ms", span_ms);
    m.insert("core.parts_over_span", ratio(parts_ms, span_ms));
    let ext_ms = extsort_probe(&calls, &inst.engine.exec);
    m.insert("extsort.sort_ms", ext_ms);
    m.insert("extsort.spill_penalty", ratio(ext_ms, span_ms));
    m.insert("planner.roga_us", roga_probe(inst, &reference));

    // Sums over the traced ops.
    let spans = rec.spans();
    let s = &sums;
    m.insert("simd-sort.sort_ms", s.ms(s.sort_ns));
    m.insert("simd-sort.phase_in_register_ms", s.ms(s.in_register_ns));
    m.insert("simd-sort.phase_in_cache_ms", s.ms(s.in_cache_ns));
    m.insert("simd-sort.phase_multiway_ms", s.ms(s.multiway_ns));
    m.insert("simd-sort.codes_sorted", s.per_op(s.codes_sorted));
    m.insert("simd-sort.invocations", s.per_op(s.invocations));
    m.insert("simd-sort.merge_comparisons", s.per_op(s.merge_comparisons));
    m.insert(
        "simd-sort.ovc_hit_ratio",
        ratio(s.merge_ovc_hits as f64, s.merge_comparisons as f64),
    );
    m.insert("core.massage_ms", s.ms(s.massage_ns));
    m.insert("core.lookup_ms", s.ms(s.lookup_ns));
    m.insert("core.scan_ms", s.ms(s.scan_ns));
    m.insert("core.rounds", s.per_op(s.rounds));
    m.insert("core.unattributed_ms", s.ms(s.core_rest_ns));
    m.insert("extsort.self_ms", s.ms(s.extsort_rest_ns));
    m.insert("core.round_loop_allocs", s.per_op(s.round_loop_allocs));
    m.insert(
        "core.arena_bytes_peak",
        sess.arena_stats().bytes_peak as f64,
    );
    m.insert("morsel.dispatched", s.per_op(s.dispatched));
    m.insert("morsel.stolen", s.per_op(s.stolen));
    m.insert("morsel.split", s.per_op(s.split));
    m.insert(
        "morsel.steal_ratio",
        ratio(s.stolen as f64, s.dispatched as f64),
    );
    m.insert("extsort.runs", s.per_op(s.spill_runs));
    m.insert("extsort.spill_bytes", s.per_op(s.spill_bytes));
    let key_bytes: f64 = calls
        .iter()
        .map(|c| {
            let per_row: usize = c.specs.iter().map(|s| (s.width as usize).div_ceil(8)).sum();
            (per_row * c.cols.first().map_or(0, |col| col.len())) as f64
        })
        .sum();
    m.insert(
        "extsort.write_amp",
        ratio(s.per_op(s.spill_bytes), key_bytes),
    );
    m.insert("extsort.merge_comparisons", s.per_op(s.spill_comparisons));
    m.insert(
        "extsort.merge_ovc_hit_ratio",
        ratio(s.spill_ovc_hits as f64, s.spill_comparisons as f64),
    );
    m.insert("planner.search_us", s.ms(s.plan_search_ns) * 1e3);
    m.insert(
        "planner.cache_hit_ratio",
        ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
    );
    m.insert("cost.pred_over_actual_p50", median(&s.pred_over_actual));
    m.insert("columnar.filter_scan_ms", s.ms(s.filter_ns));
    m.insert("columnar.gather_ms", s.ms(s.gather_ns));
    m.insert("engine.aggregate_ms", s.ms(s.aggregate_ns));
    m.insert("engine.post_sort_ms", s.ms(s.post_sort_ns));
    let named_in_query =
        s.filter_ns + s.gather_ns + s.plan_search_ns + s.mcs_ns + s.post_sort_ns + s.aggregate_ns;
    m.insert(
        "engine.unattributed_ms",
        s.ms(s.total_ns.saturating_sub(named_in_query)),
    );
    let query_span_ns = span_total_ns(spans, "engine.session_query");
    let materialize_ns = span_total_ns(spans, "engine.result_to_table");
    m.insert("engine.materialize_ms", s.ms(materialize_ns));
    m.insert(
        "engine.session_overhead_us",
        (query_span_ns as f64 - s.total_ns as f64) / 1e3 / s.queries.max(1) as f64,
    );
    m.insert(
        "engine.allocs_per_query",
        ratio(median(&engine_side.op_allocs), inst.steps.len() as f64),
    );
    let traced_p50 = own.percentile(50.0);
    m.insert("spine.op_ms_p50", traced_p50);
    m.insert("spine.op_ms_p99", own.percentile(99.0));
    m.insert("spine.op_samples", own.op_ms.len() as f64);
    let layers_ns = s.sort_ns
        + s.massage_ns
        + s.lookup_ns
        + s.scan_ns
        + s.filter_ns
        + s.gather_ns
        + s.aggregate_ns
        + s.post_sort_ns
        + s.plan_search_ns
        + s.extsort_rest_ns
        + materialize_ns;
    m.insert("spine.layers_over_op", ratio(layers_ns as f64, s.op_ns));
    m.insert(
        "spine.trace_overhead_ratio",
        ratio(traced_p50, baseline.percentile(50.0)),
    );
    m.insert("spine.steal_ratio", own.steal_ratio);
    m.insert("spine.verify_s", verify_s);

    let trace_path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    if let Err(e) = write_trace(&trace_path, spans) {
        eprintln!("spine: cannot write {}: {e}", trace_path.display());
    }

    let metrics = PER_LAYER
        .iter()
        .map(|l| (l.name, m.get(l.name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        correct: failed == 0 && !own.op_ms.is_empty(),
        attempted,
        failed,
        metrics,
        samples: own.op_ms.len(),
        notes: vec![format!("spans: {}", trace_path.display())],
    }
}
