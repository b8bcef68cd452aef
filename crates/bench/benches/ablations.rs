//! Ablation benches for the merge-sort design choices DESIGN.md calls
//! out (all pin `SortKernel::MergeSort`; the default size-driven dispatch
//! reads none of these knobs):
//!
//! * out-of-cache merge fan-out `F` (Eq. 8's `log_F` passes vs per-pass
//!   loser-tree work);
//! * in-cache run size (when to leave binary SIMD merging).

use mcs_simd_sort::{sort_pairs_with, SortConfig, SortKernel};
use mcs_test_support::microbench::{BenchmarkId, Criterion, Throughput};
use mcs_test_support::{criterion_group, criterion_main};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn merge_sort() -> SortConfig {
    SortConfig {
        kernel: SortKernel::MergeSort,
        ..SortConfig::default()
    }
}

fn bench_fanout(c: &mut Criterion) {
    let n = 1usize << 20;
    let mut state = 0xABCDu64;
    let keys: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
    let oids: Vec<u32> = (0..n as u32).collect();
    let mut g = c.benchmark_group("ablation_fanout");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for fanout in [2usize, 4, 8, 16, 32] {
        let cfg = SortConfig {
            fanout,
            in_cache_bytes: 256 * 1024,
            ..merge_sort()
        };
        g.bench_function(BenchmarkId::new("u32_sort", fanout), |b| {
            b.iter(|| {
                let mut k = keys.clone();
                let mut o = oids.clone();
                sort_pairs_with(&mut k, &mut o, &cfg);
                (k, o)
            })
        });
    }
    g.finish();
}

fn bench_in_cache_run(c: &mut Criterion) {
    let n = 1usize << 20;
    let mut state = 0x5555u64;
    let keys: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
    let oids: Vec<u32> = (0..n as u32).collect();
    let mut g = c.benchmark_group("ablation_in_cache_bytes");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for kb in [64usize, 256, 1024, 4096] {
        let cfg = SortConfig {
            in_cache_bytes: kb * 1024,
            ..merge_sort()
        };
        g.bench_function(BenchmarkId::new("u32_sort", kb), |b| {
            b.iter(|| {
                let mut k = keys.clone();
                let mut o = oids.clone();
                sort_pairs_with(&mut k, &mut o, &cfg);
                (k, o)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fanout, bench_in_cache_run);
criterion_main!(benches);
