//! Predicted-vs-actual cost-model regression: the per-round predictions
//! of [`mcs_cost::CostModel::t_mcs_rounds`] must track the executor's
//! measured round times within a generous, architecture-tolerant band.
//!
//! This is a sanity rail, not a benchmark: it catches the cost model and
//! the executor drifting apart (a changed constant, a phase the model no
//! longer prices, a round the executor stopped timing, a kernel the model
//! prices but the dispatch no longer runs) while staying robust to noisy
//! CI machines. The plan shapes mirror the differential oracle's coverage
//! matrix (identity / stitch / borrow / split), each under both sort
//! kernels with the model's `kernel` mirroring the executor's.

use mcs_columnar::CodeVec;
use mcs_core::{multi_column_sort, ExecConfig, MassagePlan, SortConfig, SortKernel, SortSpec};
use mcs_cost::{
    calibrate, CalibrationOptions, CostModel, KeyColumnStats, MachineSpec, SortInstance,
};
use mcs_test_support::Rng;

/// Ratio band: predicted/actual must land in [1/RATIO_BAND, RATIO_BAND].
/// Wide on purpose — the model's job is ranking plans, and even a 10×
/// miss would still rank correctly; a 50× miss means a term is missing
/// or double-counted. Debug builds run the executor 10–30× slower than
/// the calibrated (optimized) kernels, so the band widens to smoke-test
/// level there; the release run is the meaningful check.
const RATIO_BAND: f64 = if cfg!(debug_assertions) { 1000.0 } else { 50.0 };

/// Rounds (and totals) faster than this are skipped: timer noise and
/// constant overheads dominate below ~50µs.
const TIME_FLOOR_NS: f64 = 50_000.0;

/// Rows per instance — large enough that real rounds clear the floor
/// single-threaded, small enough to keep the test fast.
const ROWS: usize = 1 << 16;

fn quick_model() -> CostModel {
    // Quick calibration keeps the constants honest for *this* machine;
    // canned defaults would widen the band needed on exotic hardware.
    calibrate(MachineSpec::detect(), &CalibrationOptions::quick())
}

/// Build uniform random columns for `widths`, returning (cols, specs,
/// instance) like the workload extractor does.
fn build_instance(rng: &mut Rng, widths: &[u32]) -> (Vec<CodeVec>, Vec<SortSpec>, SortInstance) {
    let cols: Vec<CodeVec> = widths
        .iter()
        .map(|&w| CodeVec::from_u64s(w, (0..ROWS).map(|_| rng.gen::<u64>() & ((1u64 << w) - 1))))
        .collect();
    let specs: Vec<SortSpec> = widths
        .iter()
        .map(|&width| SortSpec {
            width,
            descending: false,
        })
        .collect();
    let stats = widths
        .iter()
        .map(|&w| KeyColumnStats::uniform(w, ((1u64 << w.min(40)) as f64).min(ROWS as f64)))
        .collect();
    let inst = SortInstance {
        rows: ROWS,
        specs: specs.clone(),
        stats,
        want_final_groups: true,
    };
    (cols, specs, inst)
}

fn check_plan(label: &str, model: &CostModel, widths: &[u32], plan: &MassagePlan) {
    for kernel in [SortKernel::Auto, SortKernel::MergeSort] {
        let model = CostModel {
            kernel,
            ..model.clone()
        };
        check_plan_under(&format!("{label}/{kernel:?}"), label, &model, widths, plan);
    }
}

fn check_plan_under(
    label: &str,
    data: &str,
    model: &CostModel,
    widths: &[u32],
    plan: &MassagePlan,
) {
    let mut rng = Rng::stream(0x5EED_C057, data);
    let (cols, specs, inst) = build_instance(&mut rng, widths);
    let refs: Vec<&CodeVec> = cols.iter().collect();
    let cfg = ExecConfig {
        sort: SortConfig {
            kernel: model.kernel,
            ..SortConfig::default()
        },
        threads: 1, // predictions are single-core CPU time
        want_final_groups: true,
        ..ExecConfig::default()
    };
    // Warm one run (page faults, frequency ramp), measure the second.
    let _ = multi_column_sort(&refs, &specs, plan, &cfg).expect("valid sort instance");
    let out = multi_column_sort(&refs, &specs, plan, &cfg).expect("valid sort instance");

    let predicted = model.t_mcs_rounds(&inst, plan);
    assert_eq!(
        predicted.rounds.len(),
        out.stats.rounds.len(),
        "[{label}] model and executor disagree on round count"
    );

    let mut checked = 0usize;
    for (k, (pc, rs)) in predicted.rounds.iter().zip(&out.stats.rounds).enumerate() {
        let pred = pc.total();
        let meas = (rs.lookup_ns + rs.sort_ns + rs.scan_ns) as f64;
        if pred < TIME_FLOOR_NS || meas < TIME_FLOOR_NS {
            continue; // below the noise floor on at least one side
        }
        let ratio = pred / meas;
        assert!(
            (1.0 / RATIO_BAND..=RATIO_BAND).contains(&ratio),
            "[{label}] round {k}: predicted {pred:.0} ns vs measured {meas:.0} ns \
             (ratio {ratio:.2} outside [{:.3}, {RATIO_BAND}])",
            1.0 / RATIO_BAND
        );
        checked += 1;
    }

    let total_pred = predicted.total();
    let total_meas = out.stats.total_ns as f64;
    if total_pred >= TIME_FLOOR_NS && total_meas >= TIME_FLOOR_NS {
        let ratio = total_pred / total_meas;
        assert!(
            (1.0 / RATIO_BAND..=RATIO_BAND).contains(&ratio),
            "[{label}] total: predicted {total_pred:.0} ns vs measured {total_meas:.0} ns \
             (ratio {ratio:.2})"
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "[{label}] every round fell below the time floor — grow ROWS"
    );
}

#[test]
fn predictions_track_measurements_across_plan_shapes() {
    let model = quick_model();
    // The oracle matrix's four shapes over the paper's 10+17-bit running
    // example, plus a three-column instance that spans all three banks.
    let ex1 = &[10u32, 17];
    check_plan(
        "identity",
        &model,
        ex1,
        &MassagePlan::from_widths(&[10, 17]),
    );
    check_plan("stitch", &model, ex1, &MassagePlan::from_widths(&[27]));
    check_plan("borrow", &model, ex1, &MassagePlan::from_widths(&[11, 16]));
    check_plan("split", &model, ex1, &MassagePlan::from_widths(&[10, 9, 8]));

    let wide = &[10u32, 17, 20];
    check_plan(
        "three_banks",
        &model,
        wide,
        &MassagePlan::from_widths(&[10, 37]),
    );
}
