//! Armed fault points in the executor. The fault registry is
//! process-global, so an armed test must not share a binary with unarmed
//! neighbours that would traverse it: this file is its own process.
#![cfg(feature = "faults")]

use mcs_columnar::CodeVec;
use mcs_core::{multi_column_sort, verify_sorted, ExecConfig, MassagePlan, SortError, SortSpec};
use mcs_faults::{points, with_armed, FireMode};

#[test]
fn injected_round_failure_and_worker_panic_become_typed_errors() {
    let n = 20_000u64;
    let a = CodeVec::from_u64s(11, (0..n).map(|i| (i * 31) % 2048));
    let b = CodeVec::from_u64s(21, (0..n).map(|i| (i * 7_919) % (1 << 21)));
    let inputs = vec![&a, &b];
    let specs = vec![SortSpec::asc(11), SortSpec::asc(21)];
    let plan = MassagePlan::column_at_a_time(&specs);

    // Round-sort fault on the second round.
    with_armed(&[(points::CORE_ROUND_SORT, FireMode::Nth(2))], || {
        let err =
            multi_column_sort(&inputs, &specs, &plan, &ExecConfig::default()).map(|out| out.oids);
        assert_eq!(err, Err(SortError::Injected(points::CORE_ROUND_SORT)));
    });

    // Worker panic in the parallel path surfaces round + chunk.
    with_armed(&[(points::SIMD_WORKER_PANIC, FireMode::Once)], || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = multi_column_sort(
            &inputs,
            &specs,
            &plan,
            &ExecConfig {
                threads: 4,
                ..ExecConfig::default()
            },
        );
        std::panic::set_hook(prev);
        match err {
            Err(SortError::WorkerPanicked { round: 0, .. }) => {}
            other => panic!("expected WorkerPanicked in round 0, got {other:?}"),
        }
    });

    // Disarmed: the identical call succeeds again.
    let out =
        multi_column_sort(&inputs, &specs, &plan, &ExecConfig::default()).expect("no faults armed");
    verify_sorted(&inputs, &specs, &out, true);
}
