//! Extension experiment (the paper's §7 future work): radix-sorting
//! massaged rounds. The number of counting passes is `⌈w/8⌉`, so
//! bit-borrowing that narrows a round can eliminate a whole pass — code
//! massaging helps radix sort "with a different flavor".
//!
//! Compares, on Example Ex3's data (17-bit + 33-bit columns):
//! * the SIMD merge-sort vs the bare radix kernel vs the shipped
//!   size-driven dispatch (`SortKernel::Auto`) on one whole-column round;
//! * `P_0` vs the massaged `{24/[32], 26/[32]}` and `{18/[32], 32/[32]}`
//!   plans through the executor under both sort kernels, next to what
//!   the cost model predicts for the shipped one.

use mcs_bench::{explain_enabled, ms, paper_exec, print_table, rows, seed, time};
use mcs_core::{
    massage, multi_column_sort, ExecArena, ExecConfig, MassagePlan, RoundKeys, SortKernel,
};
use mcs_cost::CostModel;
use mcs_engine::ExplainReport;
use mcs_simd_sort::{
    group_boundaries, radix_sort_pairs, sort_pairs_with, CancelToken, SortConfig, SortScratch,
};
use mcs_workloads::ex3;

fn main() {
    let n = rows(1 << 21);
    println!("Extension: radix-sorting massaged rounds (Ex3 data, N = {n})\n");
    let m = ex3(n, seed());

    // Kernel face-off on a single 32-bit round of the whole column.
    let (keys, _) = massage(
        &m.column_refs(),
        &m.specs,
        &MassagePlan::from_widths(&[17, 33]),
        1,
    );
    if let RoundKeys::B32(v) = &keys[0] {
        let mut out = Vec::new();
        let oids: Vec<u32> = (0..v.len() as u32).collect();
        let merge = SortConfig {
            kernel: SortKernel::MergeSort,
            ..SortConfig::default()
        };
        let (_, d_merge) = time(|| {
            let mut k = v.clone();
            let mut o = oids.clone();
            sort_pairs_with(&mut k, &mut o, &merge);
            group_boundaries(&k).num_groups()
        });
        let (_, d_auto) = time(|| {
            let mut k = v.clone();
            let mut o = oids.clone();
            sort_pairs_with(&mut k, &mut o, &SortConfig::default());
            group_boundaries(&k).num_groups()
        });
        let (_, d_radix) = time(|| {
            let mut k = v.clone();
            let mut o = oids.clone();
            radix_sort_pairs(
                &mut k,
                &mut o,
                &mut SortScratch::new(),
                &CancelToken::none(),
            );
            group_boundaries(&k).num_groups()
        });
        out.push(vec![
            "17-bit column (round 1)".into(),
            ms(d_merge.as_nanos() as u64),
            ms(d_radix.as_nanos() as u64),
            ms(d_auto.as_nanos() as u64),
        ]);
        print_table(
            &["kernel face-off", "mergesort_ms", "radix_ms", "auto_ms"],
            &out,
        );
    }

    // Plan face-off: P0 (17 -> 3 passes, 33 -> 5 passes) vs a balanced
    // {24, 26} massage (3 + 4 passes, one pass saved and narrower storage
    // for round 2) vs the one-bit borrow {18, 32}.
    let inst = m.instance();
    let model = CostModel::with_defaults();
    let executor_ms = |plan: &MassagePlan, cfg: &ExecConfig| {
        let cols = m.column_refs();
        // Second of two runs: the first pays the page faults.
        let _ = multi_column_sort(&cols, None, &m.specs, plan, cfg, &mut ExecArena::new())
            .expect("valid plan");
        let out = multi_column_sort(&cols, None, &m.specs, plan, cfg, &mut ExecArena::new())
            .expect("valid plan");
        if explain_enabled() && cfg.sort.kernel == model.kernel {
            let rep = ExplainReport::from_parts("ex3", &inst, plan, &out.stats, &model);
            println!("\n{}", rep.render());
        }
        ms(out.stats.total_ns)
    };
    let mut out = Vec::new();
    for (name, plan) in [
        ("P0 {17,33}", MassagePlan::from_widths(&[17, 33])),
        ("massaged {24,26}", MassagePlan::from_widths(&[24, 26])),
        ("massaged {18,32}", MassagePlan::from_widths(&[18, 32])),
    ] {
        out.push(vec![
            name.into(),
            plan.notation(),
            executor_ms(&plan, &paper_exec()),
            executor_ms(&plan, &ExecConfig::default()),
            ms(model.t_mcs(&inst, &plan) as u64),
        ]);
    }
    print_table(
        &[
            "plan",
            "notation",
            "mergesort_ms",
            "auto_ms",
            "auto_predicted_ms",
        ],
        &out,
    );
    println!(
        "\nShape check: auto beats mergesort on every plan; under auto the\n\
         one-bit borrow {{18,32}} should edge out P0 (its second round drops\n\
         from five scatter passes on 8-byte keys to four on 4-byte keys),\n\
         while {{24,26}} loses: its 24-bit first round leaves ~10^6 two-row\n\
         groups, and no kernel makes those cheap."
    );
}
