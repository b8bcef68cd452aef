//! Figure 3 — performance of code-massage plans on Examples Ex1, Ex2 and
//! Ex4, with the per-phase breakdown (massage / per-round sort / lookup /
//! scan) the figure's stacked bars show.
//!
//! Expected shape (paper):
//! * **Ex1** (10+17 bits): the `P_≪17` stitch beats `P_0` (~44 % faster);
//! * **Ex2** (15+31 bits): the reckless `P_≪31` stitch *loses* to `P_0`
//!   (forced 64-bit bank outweighs saving a round);
//! * **Ex4** (48+48 bits): `P_32×3` — three rounds! — beats two 64-bank
//!   rounds.

use mcs_bench::{ms, print_table, rows, seed, time};
use mcs_core::{multi_column_sort, ExecArena};
use mcs_workloads::{ex1, ex2, ex4, MicroInstance};

fn run(m: &MicroInstance) {
    println!("\n== {} ==", m.name);
    let refs = m.column_refs();
    let cfg = mcs_bench::paper_exec();
    let mut out_rows = Vec::new();
    for (name, plan) in &m.plans {
        let (res, d) = time(|| {
            multi_column_sort(&refs, None, &m.specs, plan, &cfg, &mut ExecArena::new())
                .expect("valid sort instance")
        });
        let s = &res.stats;
        out_rows.push(vec![
            name.clone(),
            plan.notation(),
            ms(d.as_nanos() as u64),
            ms(s.massage_ns),
            s.rounds
                .iter()
                .map(|r| ms(r.sort_ns))
                .collect::<Vec<_>>()
                .join(" / "),
            ms(s.lookup_ns()),
            ms(s.scan_ns()),
        ]);
    }
    print_table(
        &[
            "plan",
            "notation",
            "total_ms",
            "massage_ms",
            "sort_ms (per round)",
            "lookup_ms",
            "scan_ms",
        ],
        &out_rows,
    );
}

fn main() {
    let n = rows(1 << 21);
    let s = seed();
    println!(
        "Figure 3: code-massage plan comparison on Ex1/Ex2/Ex4 (N = {n}, NDV = min(2^13, 2^w))"
    );
    run(&ex1(n, s));
    run(&ex2(n, s));
    run(&ex4(n, s));
}
