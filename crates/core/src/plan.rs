//! Code-massage plans: the `{R_1: w/[b], R_2: w/[b], …}` objects of the
//! paper (§3).
//!
//! A multi-column sort over columns of widths `w_1 … w_m` concatenates the
//! per-tuple codes into one `W = Σ w_i`-bit key. A [`MassagePlan`]
//! re-partitions that bit string into `k` *rounds*, each sorted with a
//! SIMD bank wide enough to hold it. The original column-at-a-time plan
//! `P_0` is the plan whose boundaries coincide with the column boundaries.

use mcs_simd_sort::Bank;

/// One input column of a multi-column sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortSpec {
    /// Code width `w_i` in bits (1..=64).
    pub width: u32,
    /// `true` for `ORDER BY … DESC`: the column is complemented before
    /// stitching (§3, Figure 5).
    pub descending: bool,
}

impl SortSpec {
    /// Ascending column of the given width.
    pub fn asc(width: u32) -> SortSpec {
        SortSpec {
            width,
            descending: false,
        }
    }

    /// Descending column of the given width.
    pub fn desc(width: u32) -> SortSpec {
        SortSpec {
            width,
            descending: true,
        }
    }
}

/// One sorting round: `width` bits sorted with a `bank`-bit SIMD sort —
/// the paper's `R_i : w/[b]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Round {
    /// Bits of the concatenated key handled in this round.
    pub width: u32,
    /// Bank used by the SIMD sort of this round.
    pub bank: Bank,
}

impl Round {
    /// Round using the minimum bank for its width.
    pub fn tight(width: u32) -> Round {
        Round {
            width,
            bank: Bank::min_for_width(width),
        }
    }
}

/// Errors from [`MassagePlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A round has width 0.
    EmptyRound,
    /// A round's width exceeds its bank capacity.
    RoundOverflowsBank {
        /// Offending round index.
        round: usize,
        /// Its width.
        width: u32,
        /// Its bank.
        bank: Bank,
    },
    /// Round widths don't sum to the total key width.
    WidthMismatch {
        /// Sum of round widths.
        got: u32,
        /// Expected `W`.
        expected: u32,
    },
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanError::EmptyRound => write!(f, "plan contains an empty round"),
            PlanError::RoundOverflowsBank { round, width, bank } => {
                write!(f, "round {round}: {width} bits exceed bank {bank}")
            }
            PlanError::WidthMismatch { got, expected } => {
                write!(f, "round widths sum to {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A code-massage plan: an ordered partition of the `W`-bit concatenated
/// key into sorting rounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MassagePlan {
    /// The rounds, first sorted first.
    pub rounds: Vec<Round>,
}

impl MassagePlan {
    /// Build from rounds.
    pub fn new(rounds: Vec<Round>) -> MassagePlan {
        MassagePlan { rounds }
    }

    /// Build from round widths, assigning each its minimum bank.
    pub fn from_widths(widths: &[u32]) -> MassagePlan {
        MassagePlan {
            rounds: widths.iter().map(|&w| Round::tight(w)).collect(),
        }
    }

    /// The original column-at-a-time plan `P_0` for the given columns.
    pub fn column_at_a_time(specs: &[SortSpec]) -> MassagePlan {
        MassagePlan::new(specs.iter().map(|s| Round::tight(s.width)).collect())
    }

    /// Number of rounds `k`.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total bits `W` covered by the plan.
    pub fn total_width(&self) -> u32 {
        self.rounds.iter().map(|r| r.width).sum()
    }

    /// Round widths.
    pub fn widths(&self) -> Vec<u32> {
        self.rounds.iter().map(|r| r.width).collect()
    }

    /// Check structural validity against a total key width.
    pub fn validate(&self, total_width: u32) -> Result<(), PlanError> {
        let mut sum = 0u32;
        for (i, r) in self.rounds.iter().enumerate() {
            if r.width == 0 {
                return Err(PlanError::EmptyRound);
            }
            if !r.bank.holds(r.width) {
                return Err(PlanError::RoundOverflowsBank {
                    round: i,
                    width: r.width,
                    bank: r.bank,
                });
            }
            sum += r.width;
        }
        if sum != total_width {
            return Err(PlanError::WidthMismatch {
                got: sum,
                expected: total_width,
            });
        }
        Ok(())
    }

    /// Whether this plan's boundaries equal the given column boundaries
    /// (i.e. it is `P_0` modulo bank choices).
    pub fn is_column_aligned<'a>(&self, widths: impl IntoIterator<Item = &'a u32>) -> bool {
        self.rounds.iter().map(|r| &r.width).eq(widths)
    }

    /// `I_FIP`: invocations of the four-instruction massage program,
    /// `|{s_1, s_2, …} ∪ {s'_1, s'_2, …}|` over the input and output
    /// prefix-sum sequences (§4, Eq. 4 context). Both sequences ascend,
    /// so one merge counts their union without allocating.
    pub fn i_fip<'a>(&self, in_widths: impl IntoIterator<Item = &'a u32>) -> usize {
        let sums = |acc: &mut u32, w: &u32| {
            *acc += *w;
            Some(*acc)
        };
        let mut cuts_in = in_widths.into_iter().scan(0, sums).peekable();
        let widths = self.rounds.iter().map(|r| &r.width);
        let mut cuts_out = widths.scan(0, sums).peekable();
        let (mut count, mut last) = (0, None);
        loop {
            let next = match (cuts_in.peek(), cuts_out.peek()) {
                (Some(a), Some(b)) if a <= b => cuts_in.next(),
                (_, Some(_)) => cuts_out.next(),
                (Some(_), None) => cuts_in.next(),
                (None, None) => return count,
            };
            if next != last {
                count += 1;
                last = next;
            }
        }
    }

    /// Paper-style notation, e.g. `{R1: 18/[32], R2: 32/[32]}`, built in
    /// one allocation.
    pub fn notation(&self) -> String {
        use core::fmt::Write;
        // `R12: 64/[64], ` is 14 bytes.
        let mut s = String::with_capacity(2 + 14 * self.rounds.len());
        let _ = write!(s, "{self}");
        s
    }
}

impl core::fmt::Display for MassagePlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("{")?;
        for (i, r) in self.rounds.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}R{}: {}/{}", i + 1, r.width, r.bank)?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p0_uses_minimum_banks() {
        // Paper's running example: 10-bit and 17-bit columns.
        let p0 = MassagePlan::column_at_a_time(&[SortSpec::asc(10), SortSpec::asc(17)]);
        assert_eq!(p0.notation(), "{R1: 10/[16], R2: 17/[32]}");
        assert_eq!(p0.total_width(), 27);
        assert!(p0.validate(27).is_ok());
    }

    #[test]
    fn stitch_all_plan() {
        // P_<<17 of Example Ex1: one 27-bit round in a 32-bit bank.
        let p = MassagePlan::from_widths(&[27]);
        assert_eq!(p.notation(), "{R1: 27/[32]}");
    }

    #[test]
    fn validation_errors() {
        let p = MassagePlan::new(vec![Round {
            width: 40,
            bank: Bank::B32,
        }]);
        assert!(matches!(
            p.validate(40),
            Err(PlanError::RoundOverflowsBank { .. })
        ));
        let p = MassagePlan::from_widths(&[10, 10]);
        assert!(matches!(
            p.validate(25),
            Err(PlanError::WidthMismatch {
                got: 20,
                expected: 25
            })
        ));
        let p = MassagePlan::new(vec![Round {
            width: 0,
            bank: Bank::B16,
        }]);
        assert_eq!(p.validate(0), Err(PlanError::EmptyRound));
    }

    #[test]
    fn i_fip_matches_paper_examples() {
        // Ex3: inputs 17+33, plan P_<<1 = {18, 32}:
        // |{17, 50} ∪ {18, 50}| = 3.
        let p = MassagePlan::from_widths(&[18, 32]);
        assert_eq!(p.i_fip(&[17, 33]), 3);

        // Ex4: inputs 48+48, plan P_32x3 = {32, 32, 32}:
        // |{48, 96} ∪ {32, 64, 96}| = 4.
        let p = MassagePlan::from_widths(&[32, 32, 32]);
        assert_eq!(p.i_fip(&[48, 48]), 4);

        // Identity plan: I_FIP = m.
        let p = MassagePlan::from_widths(&[17, 33]);
        assert_eq!(p.i_fip(&[17, 33]), 2);
    }

    #[test]
    fn i_fip_counts_each_cut_once() {
        // Cuts {3, 12} ∪ {5, 12}; zero-width inputs repeat a cut, and a
        // repeated cut is one invocation.
        let p = MassagePlan::from_widths(&[5, 7]);
        assert_eq!(p.i_fip(&[3, 9]), 3);
        assert_eq!(p.i_fip(&[0, 5, 0, 7]), 3);
        assert_eq!(p.i_fip(&[12]), 2);
    }

    #[test]
    fn column_aligned_detection() {
        let p = MassagePlan::from_widths(&[17, 33]);
        assert!(p.is_column_aligned(&[17, 33]));
        assert!(!p.is_column_aligned(&[18, 32]));
    }
}
