//! Figure 4 — Example Ex3 (17-bit + 33-bit columns): execute *every*
//! boundary-shift plan `P_≪33 … P_0 … P_≫17` and report
//!
//! * (4a) total and per-round sorting time per plan — the "time hill"
//!   whose peak sits where many small non-singleton groups maximize
//!   per-invocation overhead, with the optimum at `P_≪1` =
//!   `{R1: 18/[32], R2: 32/[32]}`;
//! * (4b) the factors behind it: `N_sort` (SIMD-sort invocations),
//!   `N_group`, and the average sortable-group size.

use mcs_bench::{ms, print_table, rows, seed, time};
use mcs_core::multi_column_sort;
use mcs_workloads::ex3;

fn main() {
    let n = rows(1 << 22);
    let s = seed();
    println!("Figure 4: Ex3 shift family, N = {n}, 2^13 NDV per column\n");
    let m = ex3(n, s);
    let refs = m.column_refs();
    let cfg = mcs_bench::paper_exec();

    let mut out_rows = Vec::new();
    for (name, plan) in &m.plans {
        let (res, d) =
            time(|| multi_column_sort(&refs, &m.specs, plan, &cfg).expect("valid sort instance"));
        let st = &res.stats;
        let r2 = st.rounds.get(1);
        let n_sort = r2.map_or(0, |r| r.invocations);
        let n_group_in = r2.map_or(1, |r| r.groups_in);
        let codes = r2.map_or(0, |r| r.codes_sorted);
        let avg = if n_sort > 0 {
            format!("{:.2}", codes as f64 / n_sort as f64)
        } else {
            "-".into()
        };
        out_rows.push(vec![
            name.clone(),
            plan.notation(),
            ms(d.as_nanos() as u64),
            ms(st.rounds.first().map_or(0, |r| r.sort_ns)),
            r2.map_or("-".into(), |r| ms(r.sort_ns)),
            format!("{n_sort}"),
            format!("{n_group_in}"),
            avg,
        ]);
    }
    print_table(
        &[
            "plan",
            "notation",
            "total_ms",
            "T1_sort_ms",
            "T2_sort_ms",
            "N_sort(R2)",
            "N_group(R1)",
            "avg_group",
        ],
        &out_rows,
    );
    println!(
        "\nShape check: P<<1 should be near-optimal; a hill should rise toward\n\
         mid shifts (many small sortable groups) and fall again as groups go\n\
         singleton; the one-round stitch plans pay the 64-bit bank penalty."
    );
}
