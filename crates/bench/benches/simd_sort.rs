//! Micro-bench: sort throughput per bank width — the SIMD merge-sort
//! (AVX2 vs portable), the default size-driven dispatch, and the scalar
//! pdqsort baseline. The merge-sort's per-bank ordering (16 < 32 < 64 in
//! time) is the data-parallelism property code massaging exploits.

use mcs_simd_sort::{sort_pairs_scalar, sort_pairs_with, SortConfig, SortKernel};
use mcs_test_support::microbench::{BenchmarkId, Criterion, Throughput};
use mcs_test_support::{criterion_group, criterion_main};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn bench_sorts(c: &mut Criterion) {
    let n = 1usize << 18;
    let mut g = c.benchmark_group("simd_sort");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    let mut state = 0xFEEDu64;
    let k16: Vec<u16> = (0..n).map(|_| xorshift(&mut state) as u16).collect();
    let k32: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
    let k64: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
    let oids: Vec<u32> = (0..n as u32).collect();

    let auto = SortConfig::default();
    let avx2 = SortConfig {
        kernel: SortKernel::MergeSort,
        ..SortConfig::default()
    };
    let portable = SortConfig {
        force_portable: true,
        ..avx2.clone()
    };

    macro_rules! case {
        ($name:expr, $keys:expr, $cfg:expr) => {
            g.bench_function(BenchmarkId::new($name, n), |b| {
                b.iter(|| {
                    let mut k = $keys.clone();
                    let mut o = oids.clone();
                    sort_pairs_with(&mut k, &mut o, $cfg);
                    (k, o)
                })
            });
        };
    }
    case!("u16_auto", k16, &auto);
    case!("u32_auto", k32, &auto);
    case!("u64_auto", k64, &auto);
    case!("u16_avx2", k16, &avx2);
    case!("u16_portable", k16, &portable);
    case!("u32_avx2", k32, &avx2);
    case!("u32_portable", k32, &portable);
    case!("u64_avx2", k64, &avx2);
    case!("u64_portable", k64, &portable);
    g.bench_function(BenchmarkId::new("u32_scalar_pdq", n), |b| {
        b.iter(|| {
            let mut k = k32.clone();
            let mut o = oids.clone();
            sort_pairs_scalar(&mut k, &mut o);
            (k, o)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sorts);
criterion_main!(benches);
