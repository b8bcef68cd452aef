//! `ColumnStats::compute` counts distinct codes in a bit set and buckets
//! the histogram by shifts. It must agree, field for field, with the
//! sorting reference below (sort + dedup for the NDV, `u128` division for
//! the histogram) on every width, row count and value shape. And a
//! `Column`'s lazily built statistics and ByteSlice layout must be one
//! value however many threads race to read them first.

use std::sync::Barrier;

use mcs_columnar::{CodeVec, Column, ColumnStats};
use mcs_test_support::{check, Rng};

/// The statistics as computed by sorting a copy of the codes.
fn reference(vals: &[u64], width: u32) -> ColumnStats {
    let buckets = 16usize;
    let mut histogram = vec![0u64; buckets];
    let domain = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    for &v in vals {
        let b = ((v as u128 * buckets as u128) / (domain as u128 + 1)) as usize;
        histogram[b.min(buckets - 1)] += 1;
    }
    let mut all = vals.to_vec();
    all.sort_unstable();
    all.dedup();
    ColumnStats {
        rows: vals.len(),
        ndv: all.len(),
        min: vals.iter().copied().min().unwrap_or(0),
        max: vals.iter().copied().max().unwrap_or(0),
        histogram,
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

const SHAPES: [&str; 5] = [
    "uniform",
    "constant",
    "sorted",
    "sparse-wide",
    "dense-narrow",
];

/// `rows` codes of `width` bits in the named shape.
fn gen_values(rng: &mut Rng, shape: &str, rows: usize, width: u32) -> Vec<u64> {
    let m = mask(width);
    match shape {
        "uniform" => (0..rows).map(|_| rng.gen::<u64>() & m).collect(),
        "constant" => vec![rng.gen::<u64>() & m; rows],
        "sorted" => {
            let mut v: Vec<u64> = (0..rows).map(|_| rng.gen::<u64>() & m).collect();
            v.sort_unstable();
            v
        }
        // A few values at both ends of the domain: past a small width the
        // range outgrows 64 bits per row, and the count sorts a copy.
        "sparse-wide" => {
            let picks = [0, m, m / 3, rng.gen::<u64>() & m];
            (0..rows).map(|_| *rng.choose(&picks)).collect()
        }
        // A window no wider than the row count, anywhere in the domain:
        // always within the bit set's reach.
        "dense-narrow" => {
            let span = (rows as u64).clamp(1, m.saturating_add(1).max(1));
            let base = (rng.gen::<u64>() & m).min(m - (span - 1));
            (0..rows).map(|_| base + rng.gen_range(0..span)).collect()
        }
        other => unreachable!("unknown shape {other}"),
    }
}

fn assert_matches_reference(vals: &[u64], width: u32, what: &str) {
    let codes = CodeVec::from_u64s(width, vals.iter().copied());
    assert_eq!(
        ColumnStats::compute(&codes, width),
        reference(vals, width),
        "{what}: width {width}, {} rows",
        vals.len()
    );
}

#[test]
fn stats_match_the_sorting_reference_at_every_width() {
    check("stats_every_width", 8, |rng| {
        for width in 1..=64u32 {
            for shape in SHAPES {
                for rows in [0, 1, rng.gen_range(2..300usize)] {
                    let vals = gen_values(rng, shape, rows, width);
                    assert_matches_reference(&vals, width, shape);
                }
            }
        }
    });
}

#[test]
fn stats_match_the_sorting_reference_on_large_columns() {
    check("stats_large_columns", 10, |rng| {
        let width = rng.gen_range(1..=64u32);
        let shape = *rng.choose(&SHAPES);
        let vals = gen_values(rng, shape, 1 << 17, width);
        assert_matches_reference(&vals, width, shape);
    });
}

#[test]
fn racing_first_reads_see_one_value() {
    check("stats_racing_reads", 4, |rng| {
        let width = rng.gen_range(1..=64u32);
        let vals = gen_values(rng, "uniform", 5_000, width);
        let col = Column::from_u64s("c", width, vals.iter().copied());
        let unread = col.clone();
        let barrier = Barrier::new(4);
        let seen: Vec<(&ColumnStats, CodeVec)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let (col, barrier) = (&col, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        // Half the threads read the layout first.
                        if i % 2 == 0 {
                            let codes = col.byteslice().to_codes();
                            (col.stats(), codes)
                        } else {
                            let stats = col.stats();
                            (stats, col.byteslice().to_codes())
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        let want = reference(&vals, width);
        for (stats, codes) in &seen {
            assert!(std::ptr::eq(*stats, col.stats()), "one stats instance");
            assert_eq!(**stats, want);
            assert_eq!(codes, col.codes());
        }
        // A clone taken before any read derives the same values itself,
        // and one taken after carries them along.
        assert_eq!(unread.stats(), col.stats());
        assert_eq!(unread.byteslice().to_codes(), *col.codes());
        let read = col.clone();
        assert_eq!(read.stats(), &want);
        assert_eq!(read.byteslice().to_codes(), *col.codes());
    });
}
