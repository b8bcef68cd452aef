//! `ColumnStats::compute` counts distinct codes in a bit set and buckets
//! the histogram by shifts. It must agree, field for field, with the
//! sorting reference below (sort + dedup for the NDV, `u128` division for
//! the histogram) on every width, row count and value shape. And a
//! `Column`'s lazily built statistics and ByteSlice layout must be one
//! value however many threads race to read them first.
//!
//! The rank layout rides the same pass: a column with at most 2^16
//! distinct codes whose ranks are narrower than its codes gets each
//! row's dense rank among its sorted distinct codes, which must equal
//! the sorting reference's, on the bit-set path and the sorting path
//! alike, and be one value under racing first reads too.

use std::sync::Barrier;

use mcs_columnar::{width_for_max, CodeVec, Column, ColumnStats, RankCodes};
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

/// The rank layout as computed by sorting a copy of the codes: `None`
/// when the column gets none, else (rank width, ranks, dictionary).
fn reference_ranks(vals: &[u64], width: u32) -> Option<(u32, Vec<u64>, Vec<u64>)> {
    let mut dict = vals.to_vec();
    dict.sort_unstable();
    dict.dedup();
    let rank_width = width_for_max(dict.len().saturating_sub(1) as u64);
    if dict.is_empty() || dict.len() > 1 << 16 || rank_width >= width {
        return None;
    }
    let ranks = vals
        .iter()
        .map(|v| dict.binary_search(v).expect("a code of the column") as u64)
        .collect();
    Some((rank_width, ranks, dict))
}

/// Everything a rank layout promises about `vals`: it is the reference's,
/// decodes to the codes, orders strictly as they do, and carries the
/// statistics of its own ranks.
fn assert_ranks_match(col: &Column, vals: &[u64], width: u32, what: &str) {
    let ctx = format!("{what}: width {width}, {} rows", vals.len());
    let got = col.rank_codes();
    let Some((rank_width, want_ranks, want_dict)) = reference_ranks(vals, width) else {
        assert!(got.is_none(), "{ctx}: no layout expected");
        return;
    };
    let rc: &RankCodes = got.unwrap_or_else(|| panic!("{ctx}: layout expected"));
    assert_eq!(rc.width(), rank_width, "{ctx}");
    let ranks: Vec<u64> = rc.codes().iter_u64().collect();
    assert_eq!(ranks, want_ranks, "{ctx}");
    assert_eq!(rc.dictionary(), &want_dict[..], "{ctx}");
    for (i, &r) in ranks.iter().enumerate() {
        assert_eq!(rc.dictionary()[r as usize], vals[i], "{ctx}: row {i}");
    }
    let mut by_code: Vec<(u64, u64)> = vals.iter().copied().zip(ranks.iter().copied()).collect();
    by_code.sort_unstable();
    for w in by_code.windows(2) {
        assert_eq!(w[0].0.cmp(&w[1].0), w[0].1.cmp(&w[1].1), "{ctx}: order");
    }
    assert_eq!(
        *rc.stats(),
        ColumnStats::compute(rc.codes(), rc.width()),
        "{ctx}"
    );
    assert_eq!(*rc.stats(), reference(&ranks, rank_width), "{ctx}");
    let mut decoded = ranks;
    rc.decode_in_place(&mut decoded);
    assert_eq!(decoded, vals, "{ctx}");
    // The pass that built the layout published the column's statistics.
    assert_eq!(*col.stats(), reference(vals, width), "{ctx}");
}

#[test]
fn rank_layout_matches_the_sorting_reference_at_every_width() {
    check("ranks_every_width", 8, |rng| {
        for width in 1..=64u32 {
            for shape in SHAPES {
                for rows in [0, 1, rng.gen_range(2..300usize)] {
                    let vals = gen_values(rng, shape, rows, width);
                    let col = Column::from_u64s("c", width, vals.iter().copied());
                    assert_ranks_match(&col, &vals, width, shape);
                    // Statistics read first leave the layout the same.
                    let col = Column::from_u64s("c", width, vals.iter().copied());
                    assert_eq!(*col.stats(), reference(&vals, width));
                    assert_ranks_match(&col, &vals, width, shape);
                }
            }
        }
    });
}

#[test]
fn rank_layout_on_both_paths_of_the_statistics_pass() {
    // Dense: a window of 5,000 codes anywhere in the domain, 2^15 rows.
    // Sparse: a few thousand codes spread over the whole domain.
    check("ranks_both_paths", 6, |rng| {
        let width = rng.gen_range(14..=64u32);
        let m = mask(width);
        let rows = 1 << 15;
        let base = (rng.gen::<u64>() & m).min(m - 4_999);
        let dense: Vec<u64> = (0..rows)
            .map(|_| base + rng.gen_range(0..5_000u64))
            .collect();
        let picks: Vec<u64> = (0..3_000).map(|_| rng.gen::<u64>() & m).collect();
        let sparse: Vec<u64> = (0..rows).map(|_| *rng.choose(&picks)).collect();
        for (what, vals) in [("dense", dense), ("sparse", sparse)] {
            let col = Column::from_u64s("c", width, vals.iter().copied());
            assert!(col.rank_codes().is_some(), "{what}: width {width}");
            assert_ranks_match(&col, &vals, width, what);
        }
    });
}

#[test]
fn rank_layout_edge_cases() {
    let layout = |width: u32, vals: &[u64]| {
        let col = Column::from_u64s("c", width, vals.iter().copied());
        assert_ranks_match(&col, vals, width, "edge");
        col.rank_codes()
            .map(|rc| (rc.width(), rc.dictionary().to_vec()))
    };
    // The empty column and a 1-bit column get none.
    assert_eq!(layout(12, &[]), None);
    assert_eq!(layout(1, &[1, 1, 1]), None);
    // NDV 1: every rank is 0, one bit wide.
    assert_eq!(layout(40, &[7, 7, 7]), Some((1, vec![7])));
    // Codes at 2^64 − 1, on the bit-set path and the sorting path.
    let top = u64::MAX;
    assert_eq!(
        layout(64, &[top, top - 1, top, top - 2]),
        Some((2, vec![top - 2, top - 1, top]))
    );
    assert_eq!(layout(64, &[top, 0, top, 0]), Some((1, vec![0, top])));
    // Ranks as wide as the codes: no layout.
    let full: Vec<u64> = (0..16).collect();
    assert_eq!(layout(4, &full), None);
    assert_eq!(layout(4, &full[..9]), None);
    assert_eq!(layout(4, &full[..8]), Some((3, full[..8].to_vec())));
    // More than 2^16 distinct codes: no layout, however narrow.
    let many: Vec<u64> = (0..(1u64 << 16) + 1).map(|v| v * 3).collect();
    assert_eq!(layout(40, &many), None);
    assert!(layout(40, &many[..1 << 16]).is_some());
}

#[test]
fn racing_first_reads_see_one_rank_layout() {
    check("ranks_racing_reads", 4, |rng| {
        let width = rng.gen_range(2..=64u32);
        let shape = *rng.choose(&["sparse-wide", "dense-narrow"]);
        let vals = gen_values(rng, shape, 5_000, width);
        let col = Column::from_u64s("c", width, vals.iter().copied());
        let barrier = Barrier::new(4);
        let seen: Vec<(Option<&RankCodes>, &ColumnStats)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let (col, barrier) = (&col, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        // Half the threads read the statistics first.
                        if i % 2 == 0 {
                            (col.rank_codes(), col.stats())
                        } else {
                            let stats = col.stats();
                            (col.rank_codes(), stats)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        for (ranks, stats) in &seen {
            assert!(std::ptr::eq(*stats, col.stats()), "one stats instance");
            match (ranks, col.rank_codes()) {
                (Some(a), Some(b)) => assert!(std::ptr::eq(*a, b), "one layout"),
                (None, None) => {}
                _ => panic!("readers disagree on whether there is a layout"),
            }
        }
        assert_ranks_match(&col, &vals, width, shape);
    });
}
