//! Seeded workload generators for differential testing.
//!
//! Produces multi-column sort inputs covering the axes the oracle
//! harness must exercise: random column widths (1..=64 bits, capped so
//! the concatenated key fits one 64-bit word), ASC/DESC mixes, and a
//! set of value distributions from uniform through adversarial
//! (all-equal, pre-sorted, reverse-sorted, organ-pipe), plus the
//! degenerate shapes n=0, n=1, and width=1.

use crate::oracle::SortProblem;
use crate::rng::Rng;

/// One sort column: bit width and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Bits per code, 1..=64.
    pub width: u32,
    /// Sort descending instead of ascending.
    pub descending: bool,
}

/// Value distribution for generated codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Uniform over the column's full domain.
    Uniform,
    /// Heavy duplication: codes drawn from ~sqrt(n) distinct values.
    DupHeavy,
    /// Zipf-like skew: value v with probability ∝ 1/(v+1).
    Skewed,
    /// Every code identical — one giant tie group.
    AllEqual,
    /// Already sorted ascending (worst case for naive pivoting).
    Sorted,
    /// Sorted descending.
    Reversed,
    /// Organ pipe: ascending then descending run.
    OrganPipe,
}

impl Dist {
    /// Every distribution, for exhaustive sweeps.
    pub const ALL: [Dist; 7] = [
        Dist::Uniform,
        Dist::DupHeavy,
        Dist::Skewed,
        Dist::AllEqual,
        Dist::Sorted,
        Dist::Reversed,
        Dist::OrganPipe,
    ];
}

/// Largest code representable in `width` bits.
#[inline]
pub fn width_mask(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    u64::MAX >> (64 - width)
}

/// Generate `n` codes of `width` bits following `dist`.
pub fn gen_codes(rng: &mut Rng, n: usize, width: u32, dist: Dist) -> Vec<u64> {
    let mask = width_mask(width);
    match dist {
        Dist::Uniform => (0..n).map(|_| rng.gen::<u64>() & mask).collect(),
        Dist::DupHeavy => {
            let ndv = ((n as f64).sqrt().ceil() as u64).clamp(1, mask.saturating_add(1).max(1));
            let pool: Vec<u64> = (0..ndv).map(|_| rng.gen::<u64>() & mask).collect();
            (0..n).map(|_| *rng.choose(&pool)).collect()
        }
        Dist::Skewed => (0..n)
            .map(|_| {
                // Discrete approximation of 1/(v+1): exponentiate a
                // uniform draw so small values dominate.
                let u: f64 = rng.gen();
                let v = ((mask as f64 + 1.0).powf(u) - 1.0) as u64;
                v.min(mask)
            })
            .collect(),
        Dist::AllEqual => {
            let v = rng.gen::<u64>() & mask;
            vec![v; n]
        }
        Dist::Sorted => {
            let mut v = gen_codes(rng, n, width, Dist::Uniform);
            v.sort_unstable();
            v
        }
        Dist::Reversed => {
            let mut v = gen_codes(rng, n, width, Dist::Uniform);
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        }
        Dist::OrganPipe => {
            let mut v = gen_codes(rng, n, width, Dist::Uniform);
            v.sort_unstable();
            let half = n / 2;
            v[half..].reverse();
            v
        }
    }
}

/// Random column specs: `1..=max_cols` columns, widths 1..=64, total
/// width capped at `max_total_width` (which may exceed 64 — the
/// executor handles multi-round totals), each direction a coin flip.
pub fn random_specs(rng: &mut Rng, max_cols: usize, max_total_width: u32) -> Vec<ColumnSpec> {
    assert!(max_total_width >= 1);
    let k = rng.gen_range(1..=max_cols.max(1));
    let mut specs = Vec::with_capacity(k);
    let mut remaining = max_total_width;
    for i in 0..k {
        if remaining == 0 {
            break;
        }
        let cols_left = (k - i) as u32;
        // Leave at least 1 bit for each remaining column.
        let hi = remaining.saturating_sub(cols_left - 1).clamp(1, 64);
        let width = rng.gen_range(1..=hi);
        specs.push(ColumnSpec {
            width,
            descending: rng.gen_bool(0.5),
        });
        remaining -= width;
    }
    specs
}

/// Generate a full [`SortProblem`]: one column of codes per spec.
pub fn gen_problem(rng: &mut Rng, n: usize, specs: &[ColumnSpec], dist: Dist) -> SortProblem {
    let columns = specs
        .iter()
        .map(|s| gen_codes(rng, n, s.width, dist))
        .collect();
    SortProblem {
        columns,
        widths: specs.iter().map(|s| s.width).collect(),
        descending: specs.iter().map(|s| s.descending).collect(),
    }
}

/// A random list of distinct row ids below `n`, as a sort over a row
/// subset takes it: each row kept with one random probability, then, when
/// `shuffled`, put in random order (a filter's output is ascending).
pub fn gen_row_list(rng: &mut Rng, n: usize, shuffled: bool) -> Vec<u32> {
    let keep = rng.gen_range(0..=100u32) as f64 / 100.0;
    let mut rows: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(keep)).collect();
    if shuffled {
        rng.shuffle(&mut rows);
    }
    rows
}

/// Degenerate problems every harness should cover: n=0, n=1, and a
/// width-1 column with ties.
pub fn degenerate_problems(rng: &mut Rng) -> Vec<(&'static str, SortProblem)> {
    let two = [
        ColumnSpec {
            width: 7,
            descending: false,
        },
        ColumnSpec {
            width: 3,
            descending: true,
        },
    ];
    let one_bit = [ColumnSpec {
        width: 1,
        descending: false,
    }];
    vec![
        ("n=0", gen_problem(rng, 0, &two, Dist::Uniform)),
        ("n=1", gen_problem(rng, 1, &two, Dist::Uniform)),
        ("width=1", gen_problem(rng, 257, &one_bit, Dist::Uniform)),
        (
            "width=1 all-equal",
            gen_problem(rng, 64, &one_bit, Dist::AllEqual),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_respect_width() {
        let mut rng = Rng::seed_from_u64(5);
        for dist in Dist::ALL {
            for width in [1u32, 2, 7, 16, 33, 64] {
                let codes = gen_codes(&mut rng, 200, width, dist);
                assert_eq!(codes.len(), 200);
                let mask = width_mask(width);
                assert!(
                    codes.iter().all(|&c| c <= mask),
                    "{dist:?} width {width} leaked past mask"
                );
            }
        }
    }

    #[test]
    fn specs_respect_total_width() {
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..500 {
            let specs = random_specs(&mut rng, 5, 64);
            assert!(!specs.is_empty());
            let total: u32 = specs.iter().map(|s| s.width).sum();
            assert!((1..=64).contains(&total), "total {total}");
            assert!(specs.iter().all(|s| s.width >= 1));
        }
    }

    #[test]
    fn both_directions_appear() {
        let mut rng = Rng::seed_from_u64(7);
        let mut asc = false;
        let mut desc = false;
        for _ in 0..200 {
            for s in random_specs(&mut rng, 4, 32) {
                if s.descending {
                    desc = true;
                } else {
                    asc = true;
                }
            }
        }
        assert!(asc && desc);
    }

    #[test]
    fn dup_heavy_actually_duplicates() {
        let mut rng = Rng::seed_from_u64(8);
        let codes = gen_codes(&mut rng, 1000, 40, Dist::DupHeavy);
        let mut uniq = codes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() <= 40, "ndv {} too high for DupHeavy", uniq.len());
    }

    #[test]
    fn degenerate_shapes() {
        let mut rng = Rng::seed_from_u64(9);
        let probs = degenerate_problems(&mut rng);
        assert_eq!(probs[0].1.num_rows(), 0);
        assert_eq!(probs[1].1.num_rows(), 1);
        assert!(probs[2].1.widths == vec![1]);
    }
}
