//! The code-massage plan space (§5).
//!
//! A plan is a composition of the total key width `W` into round widths
//! (`|P| = 2^{W-1}` compositions in total), each round carrying a bank.
//! Lemma 2 bounds the useful number of rounds; Property 1 prunes bank
//! combinations where two adjacent rounds could always be stitched into
//! the earlier round's bank.

use mcs_core::{Bank, MassagePlan, Round};

/// Lemma 2: plans with more than `⌊2(W−1)/b_min⌋ + 1` rounds are
/// dominated.
pub fn max_rounds(total_width: u32, b_min: u32) -> u32 {
    assert!(total_width >= 1 && b_min >= 1);
    2 * (total_width - 1) / b_min + 1
}

/// Enumerate the valid bank combinations for `k` rounds over a `W`-bit
/// key:
///
/// * capacity: `Σ b_i ≥ W` and every round can get ≥ 1 bit
///   (`W ≥ k`);
/// * Property-1 pruning: for `i < k`, an assignment with
///   `w_i + w_{i+1} > b_i` must exist, i.e. `W − (k−2) > b_i`; combos
///   violating it (e.g. `(64, 16)` for `W = 59`) are dominated by plans
///   with fewer rounds.
pub fn bank_combos(total_width: u32, k: u32) -> Vec<Vec<Bank>> {
    let mut out = Vec::new();
    if k == 0 || total_width < k {
        return out;
    }

    /// Minimum canonical width of a round in bank `b` (a narrower width
    /// would belong to a smaller bank's combo).
    fn floor_of(b: Bank) -> u32 {
        match b {
            Bank::B16 => 1,
            Bank::B32 => 17,
            Bank::B64 => 33,
        }
    }

    let mut cur: Vec<Bank> = Vec::with_capacity(k as usize);
    fn rec(
        total_width: u32,
        k: u32,
        cap_so_far: u32,
        floor_so_far: u32,
        cur: &mut Vec<Bank>,
        out: &mut Vec<Vec<Bank>>,
    ) {
        let left = k - cur.len() as u32;
        if left == 0 {
            if cap_so_far >= total_width && floor_so_far <= total_width {
                out.push(cur.clone());
            }
            return;
        }
        // Feasibility pruning (checked per branch below) keeps the
        // enumeration proportional to the output size instead of 3^k.
        for b in Bank::ALL {
            // Property-1 prune applies to all but the last round.
            if (cur.len() as u32) < k - 1 && total_width.saturating_sub(k - 2) <= b.bits() {
                continue;
            }
            let cap = cap_so_far + b.bits();
            let floor = floor_so_far + floor_of(b);
            // (a) capacity: the remaining rounds at 64 bits each must
            // still be able to cover W.
            if cap + 64 * (left - 1) < total_width {
                continue;
            }
            // (b) floors: canonical minimum widths must not overshoot W
            // (remaining rounds need >= 1 bit each).
            if floor + (left - 1) > total_width {
                continue;
            }
            cur.push(b);
            rec(total_width, k, cap, floor, cur, out);
            cur.pop();
        }
    }
    rec(total_width, k, 0, 0, &mut cur, &mut out);
    out
}

/// All width assignments `(a_1, …, a_k)` for a bank combo: `a_i ≥ 1`,
/// `a_i ≤ b_i`, `Σ a_i = W`, and each `a_i`'s *minimum* bank equals `b_i`
/// (canonical membership — the same widths with looser banks are
/// enumerated, and dominated, in their own combo).
pub fn width_assignments(total_width: u32, combo: &[Bank]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(combo.len());
    fn rec(left: u32, combo: &[Bank], at: usize, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if at == combo.len() {
            if left == 0 {
                out.push(cur.clone());
            }
            return;
        }
        let remaining_rounds = (combo.len() - at - 1) as u32;
        let cap_rest: u32 = combo[at + 1..].iter().map(|b| b.bits()).sum();
        let b = combo[at];
        let lo_bank = match b {
            Bank::B16 => 1,
            Bank::B32 => 17,
            Bank::B64 => 33,
        };
        let min_a = lo_bank.max(left.saturating_sub(cap_rest)).max(1);
        let max_a = b.bits().min(left.saturating_sub(remaining_rounds));
        for a in min_a..=max_a {
            cur.push(a);
            rec(left - a, combo, at + 1, cur, out);
            cur.pop();
        }
    }
    rec(total_width, combo, 0, &mut cur, &mut out);
    out
}

/// All feasible plans for a `W`-bit key with at most `k_max` rounds
/// (minimum banks), up to `limit` plans. Used by the exhaustive "perfect
/// model" baseline (`A_i` in §6.1); the full space is `2^{W-1}`, so cap
/// generously but firmly.
pub fn enumerate_compositions(total_width: u32, k_max: u32, limit: usize) -> Vec<MassagePlan> {
    let mut out = Vec::new();
    let mut cur: Vec<u32> = Vec::new();
    fn rec(left: u32, k_left: u32, limit: usize, cur: &mut Vec<u32>, out: &mut Vec<MassagePlan>) {
        if out.len() >= limit {
            return;
        }
        if left == 0 {
            if !cur.is_empty() {
                out.push(MassagePlan::new(
                    cur.iter().map(|&w| Round::tight(w)).collect(),
                ));
            }
            return;
        }
        if k_left == 0 {
            return;
        }
        for w in 1..=left.min(64) {
            cur.push(w);
            rec(left - w, k_left - 1, limit, cur, out);
            cur.pop();
            if out.len() >= limit {
                return;
            }
        }
    }
    rec(total_width, k_max, limit, &mut cur, &mut out);
    out
}

/// Step `order` in place to its next arrangement, by Heap's algorithm:
/// starting from any arrangement with `state` all zeros (one counter per
/// position), successive calls visit each of the `m!` orders once and
/// then return `false`. GROUP BY / PARTITION BY searches walk their
/// column orders this way, one buffer for all of them.
pub fn next_order(order: &mut [usize], state: &mut [usize]) -> bool {
    for (i, count) in state.iter_mut().enumerate().skip(1) {
        // Level `i` has `i + 1` arrangements of `order[..=i]`; after each
        // it swaps its last slot with its counter's (even `i + 1`) or the
        // first (odd) one.
        order.swap(if i % 2 == 1 { *count } else { 0 }, i);
        *count += 1;
        if *count <= i {
            return true;
        }
        *count = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma2_bound_example() {
        // Paper: W = 59, b_min = 16 -> at most 8 rounds.
        assert_eq!(max_rounds(59, 16), 8);
        assert_eq!(max_rounds(1, 16), 1);
        assert_eq!(max_rounds(96, 16), 12);
    }

    #[test]
    fn bank_combos_match_paper_w59_k2() {
        // §5's walkthrough: valid combos for k=2, W=59 are exactly
        // (16,64), (32,32), (32,64).
        let combos = bank_combos(59, 2);
        let want: Vec<Vec<Bank>> = vec![
            vec![Bank::B16, Bank::B64],
            vec![Bank::B32, Bank::B32],
            vec![Bank::B32, Bank::B64],
        ];
        assert_eq!(combos, want);
    }

    #[test]
    fn bank_combos_k1() {
        // W = 59 fits only a 64-bit bank.
        assert_eq!(bank_combos(59, 1), vec![vec![Bank::B64]]);
        // W = 20: both 32 and 64 could hold it; 64 is kept (dominated at
        // costing time, not structurally invalid).
        let c = bank_combos(20, 1);
        assert!(c.contains(&vec![Bank::B32]));
    }

    #[test]
    fn width_assignments_match_paper_example() {
        // Combo {16, 64} for W=59: a1 in 1..=16, a2 = 59-a1 in 43..=58;
        // all have min-bank 64 -> 16 assignments (paper: "These 16 plans
        // would be costed").
        let a = width_assignments(59, &[Bank::B16, Bank::B64]);
        assert_eq!(a.len(), 16);
        assert!(a
            .iter()
            .all(|w| w[0] >= 1 && w[0] <= 16 && w[0] + w[1] == 59));
        // Combo {32, 32}: canonical assignments need both widths in
        // 17..=32, so a1 in 27..=32 (a2 = 59 - a1 in 27..=32 too).
        let a = width_assignments(59, &[Bank::B32, Bank::B32]);
        let firsts: Vec<u32> = a.iter().map(|w| w[0]).collect();
        assert_eq!(firsts, vec![27, 28, 29, 30, 31, 32]);
    }

    #[test]
    fn width_assignments_canonical_banks() {
        // For combo {64}: W=20 is not canonical (min bank is 32) -> none.
        assert!(width_assignments(20, &[Bank::B64]).is_empty());
        assert_eq!(width_assignments(20, &[Bank::B32]), vec![vec![20]]);
    }

    #[test]
    fn compositions_count() {
        // Compositions of 5 into any parts: 2^4 = 16.
        let all = enumerate_compositions(5, 5, 10_000);
        assert_eq!(all.len(), 16);
        // Each is a valid plan.
        for p in &all {
            assert!(p.validate(5).is_ok());
        }
        // Limit respected.
        assert_eq!(enumerate_compositions(20, 20, 100).len(), 100);
    }

    #[test]
    fn next_order_visits_every_order_once() {
        for m in 0..=6usize {
            let mut order: Vec<usize> = (0..m).collect();
            let mut state = vec![0; m];
            let mut seen = vec![order.clone()];
            while next_order(&mut order, &mut state) {
                seen.push(order.clone());
            }
            let count = seen.len();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), count, "m={m}: an order repeats");
            assert_eq!(count, (1..=m).product::<usize>(), "m={m}");
        }
    }
}
