//! Armed fault points in the parallel sort. The fault registry is
//! process-global, so an armed test must not share a binary with unarmed
//! neighbours that would traverse it: this file is its own process.
#![cfg(feature = "faults")]

use mcs_faults::{points, with_armed, FireMode};
use mcs_simd_sort::{sort_pairs_in_groups, GroupBounds, SortConfig, WorkerScratch};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn injected_worker_panic_is_caught() {
    let n = 20_000usize;
    let mut state = 99u64;
    let orig: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
    let whole = GroupBounds::whole(n);
    let cfg = SortConfig::default();
    let sort = |keys: &mut [u32], oids: &mut [u32]| {
        sort_pairs_in_groups(keys, oids, &whole, 4, &cfg, &mut WorkerScratch::new())
    };

    with_armed(&[(points::SIMD_WORKER_PANIC, FireMode::Once)], || {
        // Silence the expected worker-panic backtrace.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut keys = orig.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        let err = sort(&mut keys, &mut oids);
        std::panic::set_hook(prev);
        // Which worker pops the poisoned morsel first is a scheduling
        // race; any worker index is a valid report.
        let e = err.expect_err("armed fault must surface as WorkerPanic");
        assert!(e.worker < 4);
    });

    // Disarmed again: the same call succeeds.
    let mut keys = orig.clone();
    let mut oids: Vec<u32> = (0..n as u32).collect();
    sort(&mut keys, &mut oids).expect("disarmed");
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
}
