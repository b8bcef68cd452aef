//! Developer probe: per-bank throughput of every sort kernel at every
//! group length — the crossover table the two dispatch constants
//! (`INSERTION_MAX_ROWS`, `PACKED_MAX_ROWS`) are read from, and the check
//! that the shipped dispatch (`auto`) is at parity or better with the
//! standard library's pdqsort on packed pairs. Not a paper figure.
//!
//! Each cell sorts the same `N` random pairs as `N / len` groups of `len`
//! rows through one warm scratch, so a row of the table is what one round
//! of a multi-column sort with groups of that size pays per row. A cell
//! reports the median and the min–max of its runs; the variants of a cell
//! take turns within each run, so a change in host speed moves them
//! together and shows as spread rather than as a false crossover.
//!
//! * `MCS_PROBE_MIN_SHIFT` / `MCS_PROBE_MAX_SHIFT` — group lengths
//!   `2^min ..= 2^max` (default 1 ..= 22; `N = 2^max`), plus the
//!   half-steps `1.5 · 2^k` below 2^10, where both crossovers lie;
//! * `MCS_PROBE_SMOKE=1` — run [`SMOKE_REPS`] repetitions per cell
//!   instead of [`REPS`], then, after the table, fail unless `auto` is
//!   within 10 % of `mergesort` (or faster) at every probed length in
//!   every bank, and within 10 % of `scalar pdq` (or faster) at every
//!   probed length from 2^17 rows, where the radix kernel partitions
//!   before it counts (each variant's best run against the other's). At
//!   group lengths of 8–256 the two kernels sit within 5–15 % of each
//!   other, and a 2-core host with CPU steal swings by more than that
//!   between runs; the best of many interleaved runs is what keeps the
//!   gate about the kernels rather than the host.

use std::time::Instant;

use mcs_bench::{env_usize, print_table};
use mcs_simd_sort::{
    insertion_sort_pairs, radix_sort_pairs, sort_pairs_in_groups, sort_pairs_packed,
    sort_pairs_scalar, CancelToken, GroupBounds, SortConfig, SortKernel, SortScratch, SortableKey,
    WorkerScratch,
};

/// Timed repetitions per cell, after one untimed warm-up run.
const REPS: usize = 5;
/// Timed repetitions per cell under `MCS_PROBE_SMOKE=1`.
const SMOKE_REPS: usize = 15;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One table cell: a variant's throughput at one bank and group length,
/// in million elements per second over its runs.
struct Cell {
    bank: &'static str,
    len: usize,
    variant: &'static str,
    median: f64,
    min: f64,
    best: f64,
}

/// Run `sort` on every group of `groups`.
fn per_group<K>(
    k: &mut [K],
    o: &mut [u32],
    groups: &GroupBounds,
    mut sort: impl FnMut(&mut [K], &mut [u32]),
) {
    for r in groups.iter() {
        sort(&mut k[r.clone()], &mut o[r]);
    }
}

/// One bank's rows of the table. Within a repetition every variant of a
/// cell runs once, in turn, each on a fresh copy of the pairs, so a swing
/// in host speed lands on all of them alike rather than on one.
fn probe_bank<K: SortableKey>(
    bank: &'static str,
    keys: &[K],
    lens: &[usize],
    reps: usize,
    out: &mut Vec<Cell>,
) {
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
    let oids: Vec<u32> = (0..n as u32).collect();
    let (mut k, mut o) = (keys.to_vec(), oids.clone());
    for &len in lens {
        // Whole groups only: the tail that does not fill one stays a
        // run of singletons, which no kernel touches.
        let mut offsets: Vec<u32> = (0..=n / len).map(|g| (g * len) as u32).collect();
        offsets.extend((n / len * len + 1..=n).map(|i| i as u32));
        let groups = GroupBounds::from_offsets(offsets);

        // The portable merge-sort and pdqsort only where the SIMD
        // merge-sort and the radix kernel are the subject; the
        // comparison kernels only where they are candidates: packed
        // through 2^12 rows, quadratic insertion through 2^7.
        let mut variants = vec!["mergesort", "auto"];
        if len >= 1 << 16 {
            variants.push("mergesort portable");
        }
        variants.push("radix");
        if len <= 1 << 12 {
            variants.push("packed");
        }
        if len <= 1 << 7 {
            variants.push("insertion");
        }
        if len >= 1 << 16 {
            variants.push("scalar pdq");
        }
        let mut secs = vec![Vec::with_capacity(reps); variants.len()];
        for rep in 0..=reps {
            for (variant, secs) in variants.iter().zip(&mut secs) {
                k.copy_from_slice(keys);
                o.copy_from_slice(&oids);
                let t = Instant::now();
                match *variant {
                    "radix" => per_group(&mut k, &mut o, &groups, |k, o| {
                        radix_sort_pairs(k, o, &mut scratch, &CancelToken::none())
                    }),
                    "packed" => per_group(&mut k, &mut o, &groups, |k, o| {
                        sort_pairs_packed(k, o, &mut scratch)
                    }),
                    "insertion" => per_group(&mut k, &mut o, &groups, insertion_sort_pairs),
                    "scalar pdq" => per_group(&mut k, &mut o, &groups, sort_pairs_scalar),
                    segmented => {
                        let cfg = match segmented {
                            "mergesort" => &merge,
                            "auto" => &auto,
                            _ => &portable,
                        };
                        sort_pairs_in_groups(&mut k, &mut o, &groups, 1, cfg, &mut workers)
                            .expect(serial);
                    }
                }
                let dt = t.elapsed().as_secs_f64();
                std::hint::black_box(&k[0]);
                if rep > 0 {
                    secs.push(dt);
                }
            }
        }
        for (variant, mut secs) in variants.into_iter().zip(secs) {
            secs.sort_by(f64::total_cmp);
            let rate = |s: f64| n as f64 / s / 1e6;
            out.push(Cell {
                bank,
                len,
                variant,
                median: rate(secs[reps / 2]),
                min: rate(secs[reps - 1]),
                best: rate(secs[0]),
            });
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
    let reps = if smoke { SMOKE_REPS } else { REPS };
    probe_bank("u16", &k16, &lens, reps, &mut cells);
    probe_bank("u32", &k32, &lens, reps, &mut cells);
    probe_bank("u64", &k64, &lens, reps, &mut cells);

    println!("Kernel crossover table: N = 2^{max_shift} random pairs as N/len groups of len rows");
    println!(
        "(Melem/s: median and min-max of {reps} warm runs, every variant of a cell once per \
         run in turn; avx2 available: {})\n",
        mcs_simd_sort::avx2_available()
    );
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let len = if c.len.is_power_of_two() {
                format!("2^{}", c.len.trailing_zeros())
            } else {
                c.len.to_string()
            };
            vec![
                c.bank.to_string(),
                len,
                c.variant.to_string(),
                format!("{:.1}", c.median),
                format!("{:.1}-{:.1}", c.min, c.best),
            ]
        })
        .collect();
    print_table(&["bank", "len", "variant", "Melem/s", "min-max"], &rows);

    let get = |bank: &str, len: usize, variant: &str| -> Option<&Cell> {
        cells
            .iter()
            .find(|c| c.bank == bank && c.len == len && c.variant == variant)
    };

    // Kernel parity: the shipped dispatch at parity or better with
    // pdqsort on packed pairs, whole-input sorts of 2^20..2^22 rows, in
    // every bank, by medians.
    println!();
    for bank in ["u16", "u32", "u64"] {
        for shift in (20..=22).filter(|s| *s <= max_shift) {
            let len = 1usize << shift;
            if let (Some(a), Some(p)) = (get(bank, len, "auto"), get(bank, len, "scalar pdq")) {
                println!(
                    "{bank} 2^{shift}: auto {:.1} vs scalar pdq {:.1} Melem/s (medians) -> \
                     auto >= pdq: {}",
                    a.median,
                    p.median,
                    a.median >= p.median
                );
            }
        }
    }

    // The smoke gates on each variant's best run, as a crossover probe
    // asks what a kernel can do rather than how noisy the host is.
    if smoke {
        let mut slow = Vec::new();
        for a in cells.iter().filter(|c| c.variant == "auto") {
            let mut rivals = vec!["mergesort"];
            if a.len >= 1 << 17 {
                rivals.push("scalar pdq");
            }
            for rival in rivals {
                let r = get(a.bank, a.len, rival).map_or(0.0, |c| c.best);
                if a.best < 0.9 * r {
                    slow.push(format!(
                        "{} {}: auto {:.1} < 0.9 x {rival} {r:.1}",
                        a.bank, a.len, a.best
                    ));
                }
            }
        }
        assert!(
            slow.is_empty(),
            "auto slower than a rival by more than 10% (best runs):\n{}",
            slow.join("\n")
        );
        println!(
            "\nsmoke: auto within 10% of mergesort at every probed length, \
             and of scalar pdq from 2^17 rows, or faster (best runs)"
        );
    }
}
