//! Property tests for Lemma 1: every valid massage plan produces a valid
//! ORDER BY order and the same tie structure as the column-at-a-time plan,
//! for arbitrary data, widths, ASC/DESC mixes and random bit partitions —
//! cross-checked against the scalar reference oracle.

use mcs_columnar::CodeVec;
use mcs_core::{
    multi_column_sort, verify_sorted, Bank, ExecArena, ExecConfig, MassagePlan, Round, SortSpec,
};
use mcs_test_support::oracle::{assert_matches_reference, reference_sort, SortProblem};
use mcs_test_support::{check, Rng};

/// Random column specs: 1-4 columns, widths 1..=30, random direction.
fn random_sort_specs(rng: &mut Rng) -> Vec<SortSpec> {
    let k = rng.gen_range(1..=4usize);
    (0..k)
        .map(|_| SortSpec {
            width: rng.gen_range(1..=30u32),
            descending: rng.gen_bool(0.5),
        })
        .collect()
}

/// A random composition of `total` into parts of at most 64.
fn random_partition(rng: &mut Rng, total: u32) -> Vec<u32> {
    let mut parts = Vec::new();
    let mut left = total;
    while left > 0 {
        let w = rng.gen_range(1..=left.min(64));
        parts.push(w);
        left -= w;
    }
    parts
}

fn columns_for(rng: &mut Rng, specs: &[SortSpec], rows: usize) -> Vec<CodeVec> {
    // Low cardinality sometimes, to force multi-round tie groups.
    let low_cardinality = rng.gen_bool(0.33);
    specs
        .iter()
        .map(|sp| {
            let mask = if sp.width >= 64 {
                u64::MAX
            } else {
                (1u64 << sp.width) - 1
            };
            let cardinality_mask = if low_cardinality { mask & 0x7 } else { mask };
            CodeVec::from_u64s(
                sp.width,
                (0..rows).map(|_| rng.gen::<u64>() & cardinality_mask),
            )
        })
        .collect()
}

/// The oracle-facing view of the same instance.
fn problem_of(cols: &[CodeVec], specs: &[SortSpec]) -> SortProblem {
    SortProblem {
        columns: cols.iter().map(|c| c.iter_u64().collect()).collect(),
        widths: specs.iter().map(|s| s.width).collect(),
        descending: specs.iter().map(|s| s.descending).collect(),
    }
}

#[test]
fn lemma1_any_partition_sorts_correctly() {
    check("lemma1_any_partition_sorts_correctly", 48, |rng| {
        let specs = random_sort_specs(rng);
        let rows = rng.gen_range(0..600usize);
        let cols = columns_for(rng, &specs, rows);
        let inputs: Vec<&CodeVec> = cols.iter().collect();
        let cfg = ExecConfig::default();

        let problem = problem_of(&cols, &specs);
        let reference = reference_sort(&problem);

        let p0 = MassagePlan::column_at_a_time(&specs);
        let ref_out = multi_column_sort(&inputs, None, &specs, &p0, &cfg, &mut ExecArena::new())
            .expect("valid sort instance");
        verify_sorted(&inputs, &specs, &ref_out, true);
        assert_matches_reference(
            "P0",
            &problem,
            &reference,
            &ref_out.oids,
            Some(&ref_out.groups.offsets),
        );

        let total: u32 = specs.iter().map(|s| s.width).sum();
        for _ in 0..3 {
            let widths = random_partition(rng, total);
            let plan = MassagePlan::from_widths(&widths);
            let out = multi_column_sort(&inputs, None, &specs, &plan, &cfg, &mut ExecArena::new())
                .expect("valid sort instance");
            verify_sorted(&inputs, &specs, &out, true);
            // Lemma 1: the grouping (tie structure) is plan-invariant, and
            // the oracle agrees on order and groups.
            assert_eq!(
                out.groups.offsets, ref_out.groups.offsets,
                "plan {widths:?} grouping differs"
            );
            assert_matches_reference(
                &format!("plan {widths:?}"),
                &problem,
                &reference,
                &out.oids,
                Some(&out.groups.offsets),
            );
        }
    });
}

#[test]
fn oversized_banks_are_still_correct() {
    check("oversized_banks_are_still_correct", 48, |rng| {
        // Deliberately use wider-than-necessary banks: legal, just slower.
        let rows = rng.gen_range(1..300usize);
        let specs = vec![SortSpec::asc(9), SortSpec::desc(7)];
        let cols = columns_for(rng, &specs, rows);
        let inputs: Vec<&CodeVec> = cols.iter().collect();
        let plan = MassagePlan::new(vec![
            Round {
                width: 9,
                bank: Bank::B64,
            },
            Round {
                width: 7,
                bank: Bank::B32,
            },
        ]);
        let cfg = ExecConfig::default();
        let out = multi_column_sort(&inputs, None, &specs, &plan, &cfg, &mut ExecArena::new())
            .expect("valid sort instance");
        verify_sorted(&inputs, &specs, &out, true);
        let problem = problem_of(&cols, &specs);
        let reference = reference_sort(&problem);
        assert_matches_reference(
            "oversized-banks",
            &problem,
            &reference,
            &out.oids,
            Some(&out.groups.offsets),
        );
    });
}
