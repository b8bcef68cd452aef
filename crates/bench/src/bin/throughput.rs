//! Session throughput — queries/sec serving a TPC-H Q1-style prepared
//! query from a shared [`Database`] at 1/2/4/8 admission threads, with
//! the plan cache cold (capacity 0: every execution re-plans) vs warm
//! (prepared once, every execution serves the cached plan).
//!
//! Expected shape: queries/sec scales with threads until cores saturate,
//! and the warm cache adds the plan-search time back to every execution.
//! Writes `BENCH_throughput.json` next to the working directory.
//!
//! Memory: the bin installs the counting allocator from
//! `mcs-test-support`, so each measurement also reports heap allocations
//! per query (whole pipeline) and the session arena's byte high-water
//! mark. `round_loop_allocs` uses the *thread-local* probe
//! (`thread_allocation_count`), so each query's bracket counts only its
//! own thread — concurrent siblings cannot bleed in. Warm cells are
//! measured after the session's arena pool has been warmed by up to
//! `threads + 1` unrecorded batches, and the bin **fails hard** if any
//! warm cell still reports a nonzero `round_loop_allocs`: zero is the
//! arena's contract at every thread count, not an aspiration.
//!
//! The bin also reports the out-of-cache merge comparison counters with
//! offset-value coding on vs off (`ovc_merge` in the JSON), with the
//! in-cache threshold shrunk so Q1's sort actually reaches the loser
//! tree at the default row count.
//!
//! Knobs: `MCS_ROWS` (lineitem rows, default 65536), `MCS_QUERIES`
//! (batch size per measurement, default 64), `MCS_SEED`.

use mcs_bench::{env_usize, export_telemetry, print_table, rows, seed};
use mcs_core::SortKernel;
use mcs_engine::{Database, EngineConfig, PlannerMode, Query, QueryOptions, Session};
use mcs_test_support::{allocation_count, thread_allocation_count, CountingAlloc};
use mcs_workloads::{tpch, QuerySpec, TpchParams};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Measurement {
    threads: usize,
    cache: &'static str,
    elapsed_ms: f64,
    qps: f64,
    /// Plan-cache lookups served / missed *during the measured batch*.
    /// Q1 is grouped + ORDER BY, which performs TWO lookups per
    /// execution (the main sort plus the grouped-result post-sort), so
    /// a cold batch of Q misses 2·Q times — the `cache_misses: 33` of
    /// older runs was that arithmetic (1 prepare + 16 × 2), not a
    /// double-count. Pinned by the `mcs-engine` unit test
    /// `grouped_order_by_performs_two_cache_lookups_per_execution`.
    cache_hits: u64,
    cache_misses: u64,
    /// Heap allocations per query across the whole batch (all pipeline
    /// phases, amortized; admission threads add a small constant).
    allocs_per_query: f64,
    /// Allocations inside the executor round loops, summed over the
    /// batch (the arena's zero-allocation target once warm).
    round_loop_allocs: u64,
    /// Byte high-water mark across the session's arena pool.
    arena_bytes_peak: u64,
}

fn measure(
    db: &Database,
    cfg: &EngineConfig,
    query: &Query,
    batch_size: usize,
    threads: usize,
    warm: bool,
) -> Measurement {
    let session = if warm {
        Session::new(db, cfg.clone())
    } else {
        // Capacity 0: inserts are dropped, every lookup misses — each
        // execution pays the full stats + ROGA cost ("cold").
        Session::with_cache_capacity(db, cfg.clone(), 0)
    };
    let prepared = session
        .prepare("tpch_wide", query)
        .expect("well-formed Q1 query");
    let batch = vec![prepared; batch_size];
    if warm {
        // Warm up the arena pool before measuring: a batch may draft
        // fresh arenas (at most one per admission slot, and the pool
        // only grows), so within `threads + 1` batches one batch runs
        // entirely on warm arenas — from then on it stays warm.
        for _ in 0..=threads {
            let results = session.run_concurrent(&batch, threads, QueryOptions::default());
            let all_zero = results
                .iter()
                .flatten()
                .all(|r| r.timings.mcs_stats.round_loop_allocs == Some(0));
            if all_zero {
                break;
            }
        }
    }
    let cache_before = session.cache_stats();
    let allocs_before = allocation_count();
    let t = std::time::Instant::now();
    let results = session.run_concurrent(&batch, threads, QueryOptions::default());
    let elapsed = t.elapsed();
    let allocs = allocation_count() - allocs_before;
    assert!(
        results.iter().all(|r| r.is_ok()),
        "every query must succeed"
    );
    let round_loop_allocs = results
        .iter()
        .flatten()
        .map(|r| r.timings.mcs_stats.round_loop_allocs.unwrap_or(0))
        .sum();
    assert!(
        !warm || round_loop_allocs == 0,
        "warm round loops must not allocate at {threads} thread(s): got {round_loop_allocs}"
    );
    let stats = session.cache_stats();
    Measurement {
        threads,
        cache: if warm { "warm" } else { "cold" },
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        qps: batch_size as f64 / elapsed.as_secs_f64(),
        cache_hits: stats.hits - cache_before.hits,
        cache_misses: stats.misses - cache_before.misses,
        allocs_per_query: allocs as f64 / batch_size as f64,
        round_loop_allocs,
        arena_bytes_peak: session.arena_stats().bytes_peak,
    }
}

/// One Q1 execution's out-of-cache merge comparison counters, with the
/// in-cache threshold shrunk to 4 KiB so the sort reaches the loser
/// tree even at smoke-test row counts (the default 1 MiB threshold
/// keeps 2^16 codes entirely in the in-cache phases — nothing to
/// measure).
fn merge_counters(db: &Database, base: &EngineConfig, query: &Query, use_ovc: bool) -> (u64, u64) {
    // The loser tree (and with it OVC) is the merge-sort's out-of-cache
    // phase: pin that kernel, in executor and model alike.
    let mut cfg = base.clone();
    cfg.exec.sort.kernel = SortKernel::MergeSort;
    cfg.model.kernel = SortKernel::MergeSort;
    cfg.exec.sort.in_cache_bytes = 4096;
    cfg.exec.sort.use_ovc = use_ovc;
    cfg.model.ovc = use_ovc;
    let session = Session::new(db, cfg);
    let r = session
        .query("tpch_wide", query, QueryOptions::default())
        .expect("q1 runs");
    let (mut comparisons, mut hits) = (0u64, 0u64);
    for rs in &r.timings.mcs_stats.rounds {
        comparisons += rs.merge.comparisons;
        hits += rs.merge.ovc_hits;
    }
    (comparisons, hits)
}

fn main() {
    let n = rows(1 << 16);
    let batch_size = env_usize("MCS_QUERIES", 64);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "Session throughput: TPC-H Q1 on {n} rows, {batch_size} queries/batch, \
         plan cache cold vs warm, {cores} core(s) available\n"
    );
    if cores < 2 {
        println!("NOTE: single-core machine — thread counts > 1 cannot speed up.\n");
    }

    let w = tpch(&TpchParams {
        lineitem_rows: n,
        skew: None,
        seed: seed(),
    });
    let QuerySpec::Single(q1) = &w.query("tpch_q1").spec else {
        panic!("tpch_q1 is a single-stage query");
    };
    let q1 = q1.clone();
    let mut db = Database::new();
    for t in w.tables {
        db.register(t);
    }
    let mut cfg = EngineConfig::builder()
        .planner(PlannerMode::Roga { rho: Some(0.001) })
        // One intra-query worker: the concurrency under test is
        // *between* queries, not inside the sort.
        .threads(1)
        .build();
    // Sample the *thread-local* allocation counter around every executor
    // round loop: the round loop runs on the query's own thread, so the
    // delta is exactly its allocation count even while sibling queries
    // allocate concurrently (the process-global counter is not).
    cfg.exec.alloc_probe = Some(thread_allocation_count);

    let mut measurements: Vec<Measurement> = Vec::new();
    for &threads in &THREADS {
        for warm in [false, true] {
            measurements.push(measure(&db, &cfg, &q1, batch_size, threads, warm));
        }
    }

    let table_rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.threads.to_string(),
                m.cache.to_string(),
                format!("{:.1}", m.elapsed_ms),
                format!("{:.1}", m.qps),
                m.cache_hits.to_string(),
                m.cache_misses.to_string(),
                format!("{:.0}", m.allocs_per_query),
                m.round_loop_allocs.to_string(),
                m.arena_bytes_peak.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "threads",
            "cache",
            "batch ms",
            "queries/s",
            "hits",
            "misses",
            "allocs/q",
            "loop allocs",
            "arena peak B",
        ],
        &table_rows,
    );

    let qps_at = |threads: usize, cache: &str| {
        measurements
            .iter()
            .find(|m| m.threads == threads && m.cache == cache)
            .map_or(0.0, |m| m.qps)
    };
    println!(
        "\nscaling 1 -> 4 threads: cold {:.2}x, warm {:.2}x",
        qps_at(4, "cold") / qps_at(1, "cold"),
        qps_at(4, "warm") / qps_at(1, "warm"),
    );
    println!(
        "warm vs cold at 4 threads: {:.2}x",
        qps_at(4, "warm") / qps_at(4, "cold")
    );

    // Offset-value coding before/after: same query, merge path forced.
    let (cmp_ovc, hits_ovc) = merge_counters(&db, &cfg, &q1, true);
    let (cmp_plain, _) = merge_counters(&db, &cfg, &q1, false);
    let full_ovc = cmp_ovc - hits_ovc;
    assert!(
        cmp_plain == 0 || full_ovc < cmp_plain,
        "OVC must reduce full-key comparisons: {full_ovc} vs {cmp_plain}"
    );
    let reduction = if cmp_plain > 0 {
        100.0 * (cmp_plain - full_ovc) as f64 / cmp_plain as f64
    } else {
        0.0
    };
    println!(
        "\nout-of-cache merge (in_cache_bytes=4KiB): plain {cmp_plain} full-key comparisons; \
         ovc {cmp_ovc} matches, {hits_ovc} resolved by code, {full_ovc} full-key \
         ({reduction:.1}% fewer full-key comparisons)"
    );

    // Hand-rolled JSON (no serde in the workspace).
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"throughput\",\n");
    json.push_str("  \"workload\": \"tpch_q1\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"rows\": {n},\n"));
    json.push_str(&format!("  \"queries_per_batch\": {batch_size},\n"));
    json.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"cache\": \"{}\", \"elapsed_ms\": {:.3}, \
             \"qps\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"allocs_per_query\": {:.2}, \"round_loop_allocs\": {}, \
             \"arena_bytes_peak\": {}}}{}\n",
            m.threads,
            m.cache,
            m.elapsed_ms,
            m.qps,
            m.cache_hits,
            m.cache_misses,
            m.allocs_per_query,
            m.round_loop_allocs,
            m.arena_bytes_peak,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    // `round_loop_allocs` above counts only the probing thread's own
    // allocations (thread-local probe): warm cells are asserted to be 0
    // at every thread count. Earlier revisions sampled the process-global
    // counter, so warm concurrent cells reported other workers' heap
    // traffic (e.g. 390 at threads=2) — those numbers were probe bleed,
    // not round-loop allocations.
    json.push_str(&format!(
        "  \"ovc_merge\": {{\"in_cache_bytes\": 4096, \
         \"comparisons_plain\": {cmp_plain}, \"comparisons_ovc\": {cmp_ovc}, \
         \"ovc_hits\": {hits_ovc}, \"full_key_comparisons_ovc\": {full_ovc}, \
         \"full_key_reduction_pct\": {reduction:.1}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("\nwrote BENCH_throughput.json");
    export_telemetry("throughput");
}
