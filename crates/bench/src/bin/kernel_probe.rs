//! Developer probe: per-bank throughput of every sort kernel at every
//! group length — the crossover table the two dispatch constants
//! (`INSERTION_MAX_ROWS`, `PACKED_MAX_ROWS`) are read from, and the check
//! that the shipped dispatch (`auto`) is at parity or better with the
//! standard library's pdqsort on packed pairs. Not a paper figure.
//!
//! Each cell sorts the same `N` random pairs as `N / len` groups of `len`
//! rows through one warm scratch, so a row of the table is what one round
//! of a multi-column sort with groups of that size pays per row.
//!
//! * `MCS_PROBE_MIN_SHIFT` / `MCS_PROBE_MAX_SHIFT` — group lengths
//!   `2^min ..= 2^max` (default 1 ..= 22; `N = 2^max`), plus the
//!   half-steps `1.5 · 2^k` below 2^10, where both crossovers lie;
//! * `MCS_PROBE_SMOKE=1` — after the table, fail unless `auto` is within
//!   10 % of `mergesort` (or faster) at every probed length in every bank,
//!   and within 10 % of `scalar pdq` (or faster) at every probed length
//!   from 2^17 rows, where the radix kernel partitions before it counts.

use std::time::Instant;

use mcs_bench::{env_usize, print_table};
use mcs_simd_sort::{
    insertion_sort_pairs, radix_sort_pairs, sort_pairs_in_groups, sort_pairs_packed,
    sort_pairs_scalar, CancelToken, GroupBounds, Key, SortConfig, SortKernel, SortScratch,
    SortableKey, WorkerScratch,
};

/// Timed repetitions per cell; the fastest is reported (the probe asks
/// what a kernel can do, not how noisy the machine is).
const REPS: usize = 3;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Fastest of [`REPS`] runs of `sort` over a fresh copy of the pairs,
/// in million elements per second.
fn melem_per_s<K: Key>(keys: &[K], mut sort: impl FnMut(&mut [K], &mut [u32])) -> f64 {
    let n = keys.len();
    let oids: Vec<u32> = (0..n as u32).collect();
    let (mut k, mut o) = (keys.to_vec(), oids.clone());
    let mut best = f64::INFINITY;
    for _ in 0..=REPS {
        k.copy_from_slice(keys);
        o.copy_from_slice(&oids);
        let t = Instant::now();
        sort(&mut k, &mut o);
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&k[0]);
    }
    n as f64 / best / 1e6
}

/// One table cell: `(bank, group length, variant, Melem/s)`.
type Cell = (String, usize, &'static str, f64);

/// One bank's rows of the table.
fn probe_bank<K: SortableKey>(bank: &str, keys: &[K], lens: &[usize], out: &mut Vec<Cell>) {
    let n = keys.len();
    let auto = SortConfig::default();
    let merge = SortConfig {
        kernel: SortKernel::MergeSort,
        ..SortConfig::default()
    };
    let portable = SortConfig {
        force_portable: true,
        ..merge.clone()
    };
    let (mut workers, mut scratch) = (WorkerScratch::new(), SortScratch::new());
    let serial = "the serial path spawns no worker";
    for &len in lens {
        // Whole groups only: the tail that does not fill one stays a
        // run of singletons, which no kernel touches.
        let mut offsets: Vec<u32> = (0..=n / len).map(|g| (g * len) as u32).collect();
        offsets.extend((n / len * len + 1..=n).map(|i| i as u32));
        let groups = GroupBounds::from_offsets(offsets);
        let mut cell =
            |variant: &'static str, v: f64| out.push((bank.to_string(), len, variant, v));

        for (variant, cfg) in [("mergesort", &merge), ("auto", &auto)] {
            let v = melem_per_s(keys, |k, o| {
                sort_pairs_in_groups(k, o, &groups, 1, cfg, &mut workers).expect(serial);
            });
            cell(variant, v);
        }
        // The portable merge-sort only where the SIMD one is the subject.
        if len >= 1 << 16 {
            let v = melem_per_s(keys, |k, o| {
                sort_pairs_in_groups(k, o, &groups, 1, &portable, &mut workers).expect(serial);
            });
            cell("mergesort portable", v);
        }
        let v = melem_per_s(keys, |k, o| {
            for r in groups.iter() {
                let (k, o) = (&mut k[r.clone()], &mut o[r]);
                radix_sort_pairs(k, o, &mut scratch, &CancelToken::none());
            }
        });
        cell("radix", v);
        // The comparison kernels only where they are candidates: packed
        // through 2^12 rows, quadratic insertion through 2^7.
        if len <= 1 << 12 {
            let v = melem_per_s(keys, |k, o| {
                for r in groups.iter() {
                    sort_pairs_packed(&mut k[r.clone()], &mut o[r], &mut scratch);
                }
            });
            cell("packed", v);
        }
        if len <= 1 << 7 {
            let v = melem_per_s(keys, |k, o| {
                for r in groups.iter() {
                    insertion_sort_pairs(&mut k[r.clone()], &mut o[r]);
                }
            });
            cell("insertion", v);
        }
        if len >= 1 << 16 {
            let v = melem_per_s(keys, |k, o| {
                for r in groups.iter() {
                    sort_pairs_scalar(&mut k[r.clone()], &mut o[r]);
                }
            });
            cell("scalar pdq", v);
        }
    }
}

fn main() {
    let min_shift = env_usize("MCS_PROBE_MIN_SHIFT", 1);
    let max_shift = env_usize("MCS_PROBE_MAX_SHIFT", 22).max(min_shift);
    let smoke = std::env::var("MCS_PROBE_SMOKE").as_deref() == Ok("1");
    let mut lens = Vec::new();
    for shift in min_shift..=max_shift {
        lens.push(1usize << shift);
        if (1..10).contains(&shift) && shift < max_shift {
            lens.push(3 << (shift - 1));
        }
    }
    let n = 1usize << max_shift;

    let mut state = 0x1EEDu64;
    let k16: Vec<u16> = (0..n).map(|_| xorshift(&mut state) as u16).collect();
    let k32: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();
    let k64: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();

    let mut cells = Vec::new();
    probe_bank("u16", &k16, &lens, &mut cells);
    probe_bank("u32", &k32, &lens, &mut cells);
    probe_bank("u64", &k64, &lens, &mut cells);

    println!("Kernel crossover table: N = 2^{max_shift} random pairs as N/len groups of len rows");
    println!(
        "(best of {REPS} warm runs; avx2 available: {})\n",
        mcs_simd_sort::avx2_available()
    );
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(bank, len, variant, v)| {
            let len = if len.is_power_of_two() {
                format!("2^{}", len.trailing_zeros())
            } else {
                len.to_string()
            };
            vec![bank.clone(), len, variant.to_string(), format!("{v:.1}")]
        })
        .collect();
    print_table(&["bank", "len", "variant", "Melem/s"], &rows);

    let get = |bank: &str, len: usize, variant: &str| -> Option<f64> {
        cells
            .iter()
            .find(|(b, l, v, _)| b == bank && *l == len && *v == variant)
            .map(|c| c.3)
    };

    // Kernel parity: the shipped dispatch at parity or better with
    // pdqsort on packed pairs, whole-input sorts of 2^20..2^22 rows, in
    // every bank.
    println!();
    for bank in ["u16", "u32", "u64"] {
        for shift in (20..=22).filter(|s| *s <= max_shift) {
            let len = 1usize << shift;
            if let (Some(a), Some(p)) = (get(bank, len, "auto"), get(bank, len, "scalar pdq")) {
                println!(
                    "{bank} 2^{shift}: auto {a:.1} vs scalar pdq {p:.1} Melem/s -> auto >= pdq: {}",
                    a >= p
                );
            }
        }
    }

    if smoke {
        let mut slow = Vec::new();
        for (bank, len, variant, a) in &cells {
            if *variant != "auto" {
                continue;
            }
            let mut rivals = vec!["mergesort"];
            if *len >= 1 << 17 {
                rivals.push("scalar pdq");
            }
            for rival in rivals {
                let r = get(bank, *len, rival).unwrap_or(0.0);
                if *a < 0.9 * r {
                    slow.push(format!("{bank} {len}: auto {a:.1} < 0.9 x {rival} {r:.1}"));
                }
            }
        }
        assert!(
            slow.is_empty(),
            "auto slower than a rival by more than 10%:\n{}",
            slow.join("\n")
        );
        println!(
            "\nsmoke: auto within 10% of mergesort at every probed length, \
             and of scalar pdq from 2^17 rows, or faster"
        );
    }
}
