//! Golden snapshot of the redacted EXPLAIN rendering: a fixed instance
//! under a fixed plan must produce byte-identical output across runs and
//! machines. Wall-clock cells are redacted; everything else — layout,
//! plan notation, widths, banks, per-round kernel, group flow, invocation counts — is
//! deterministic and pinned here. Update the snapshot deliberately when
//! the report format changes.

use codemassage::columnar::CodeVec;
use codemassage::core::multi_column_sort;
use codemassage::prelude::*;

const GOLDEN: &str = "\
EXPLAIN mcs: golden
plan {R1: 24/[32], R2: 6/[16]}  rows 4096  predicted T_mcs ###  measured ###
phase                  width  bank  predicted   measured  pred/act
massage                    -     -        ###        ###       ###
R1 sort radix×3           24  [32]        ###        ###       ###
R1 scan                   24  [32]        ###        ###       ###
   groups 1 -> 4096, 1 sort invocations, 4096 codes
R2 lookup                  6  [16]        ###        ###       ###
R2 sort                    6  [16]        ###        ###       ###
R2 scan                    6  [16]        ###        ###       ###
   groups 4096 -> 4096, 0 sort invocations, 0 codes
total                      -     -        ###        ###       ###
";

#[test]
fn redacted_explain_is_byte_stable() {
    let n = 4096usize;
    // Strided generators: deterministic, no RNG, full group-flow coverage
    // (R1 fans 1 group out to 4096; R2's groups are all singletons so its
    // segmented sort runs zero invocations).
    let a = CodeVec::from_u64s(9, (0..n).map(|i| (i as u64 * 37) % 512));
    let b = CodeVec::from_u64s(15, (0..n).map(|i| (i as u64 * 101) % 32768));
    let c = CodeVec::from_u64s(6, (0..n).map(|i| (i as u64 * 13) % 64));
    let inst = SortInstance::uniform(n, &[(9, 512.0), (15, 16384.0), (6, 64.0)]);
    let plan = MassagePlan::from_widths(&[24, 6]);
    let refs: Vec<&CodeVec> = vec![&a, &b, &c];
    let out = multi_column_sort(&refs, &inst.specs, &plan, &ExecConfig::default())
        .expect("plan covers the 30-bit key");

    let model = CostModel::with_defaults();
    let rep = ExplainReport::from_parts("golden", &inst, &plan, &out.stats, &model);

    let red = rep.render_redacted();
    assert_eq!(red, GOLDEN, "redacted EXPLAIN drifted from the snapshot");

    // Render twice: redaction must be deterministic within a run too.
    assert_eq!(rep.render_redacted(), red);

    // The full rendering shares the skeleton (same line count or more —
    // sub-phase lines appear only with real timings) and shows no
    // placeholders.
    let full = rep.render();
    assert!(!full.contains("###"));
    assert!(full.lines().count() >= red.lines().count());
}
