//! The §3 micro-benchmark instances: Examples Ex1–Ex4 (Figures 3 and 4).
//!
//! Each generates `N` tuples per column with `min(2^13, 2^w)` distinct
//! values uniformly distributed over `[0, 2^w)` — the paper's setup —
//! and names the plans the figures compare.

use mcs_columnar::CodeVec;
use mcs_core::{MassagePlan, SortSpec};
use mcs_cost::{KeyColumnStats, SortInstance};

use crate::gen::{gen_codes, stream, Distribution};

/// A micro multi-column-sorting instance.
#[derive(Debug)]
pub struct MicroInstance {
    /// Identifier (`ex1` … `ex4`).
    pub name: String,
    /// The generated sort columns.
    pub columns: Vec<CodeVec>,
    /// Specs (all ascending).
    pub specs: Vec<SortSpec>,
    /// Named plans the paper's figure compares, in figure order.
    pub plans: Vec<(String, MassagePlan)>,
}

impl MicroInstance {
    /// Column references, for `multi_column_sort`.
    pub fn column_refs(&self) -> Vec<&CodeVec> {
        self.columns.iter().collect()
    }

    /// The optimizer's view of this instance.
    pub fn instance(&self) -> SortInstance {
        SortInstance {
            rows: self.columns[0].len(),
            specs: self.specs.clone(),
            stats: self
                .specs
                .iter()
                .map(|s| KeyColumnStats::uniform(s.width, 2f64.powi(s.width.min(13) as i32)))
                .collect(),
            want_final_groups: true,
        }
    }
}

/// NDV rule from the paper: `2^13`, or `2^w` when `w < 13`.
pub fn paper_ndv(width: u32) -> u64 {
    1u64 << width.min(13)
}

fn build(name: &str, rows: usize, widths: &[u32], seed: u64) -> (Vec<CodeVec>, Vec<SortSpec>) {
    let mut cols = Vec::new();
    let mut specs = Vec::new();
    for (i, &w) in widths.iter().enumerate() {
        let mut rng = stream(seed, &format!("{name}-{i}"));
        let domain = if w >= 64 { u64::MAX } else { 1u64 << w };
        let vals = gen_codes(&mut rng, rows, domain, paper_ndv(w), &Distribution::Uniform);
        cols.push(CodeVec::from_u64s(w, vals));
        specs.push(SortSpec::asc(w));
    }
    (cols, specs)
}

/// Ex1 (Figure 3a): 10-bit + 17-bit; `P_0` vs the `P_≪17` stitch.
pub fn ex1(rows: usize, seed: u64) -> MicroInstance {
    let (columns, specs) = build("ex1", rows, &[10, 17], seed);
    MicroInstance {
        name: "ex1".into(),
        columns,
        specs,
        plans: vec![
            ("P0".into(), MassagePlan::from_widths(&[10, 17])),
            ("P<<17".into(), MassagePlan::from_widths(&[27])),
        ],
    }
}

/// Ex2 (Figure 3b): 15-bit + 31-bit; the reckless `P_≪31` stitch loses.
pub fn ex2(rows: usize, seed: u64) -> MicroInstance {
    let (columns, specs) = build("ex2", rows, &[15, 31], seed);
    MicroInstance {
        name: "ex2".into(),
        columns,
        specs,
        plans: vec![
            ("P0".into(), MassagePlan::from_widths(&[15, 31])),
            ("P<<31".into(), MassagePlan::from_widths(&[46])),
        ],
    }
}

/// Ex3 (Figure 4a): 17-bit + 33-bit; the full shift family
/// `P_≪33 … P_≫17` (every boundary position of the 50-bit key).
pub fn ex3(rows: usize, seed: u64) -> MicroInstance {
    let (columns, specs) = build("ex3", rows, &[17, 33], seed);
    let mut plans = Vec::new();
    // Left-shift family: k bits move from column 2 into round 1.
    for k in (1..=33u32).rev() {
        let w1 = 17 + k;
        let name = if k == 33 {
            "P<<33 (stitch)".to_string()
        } else {
            format!("P<<{k}")
        };
        if w1 >= 50 {
            plans.push((name, MassagePlan::from_widths(&[50])));
        } else {
            plans.push((name, MassagePlan::from_widths(&[w1, 50 - w1])));
        }
    }
    plans.push(("P0".into(), MassagePlan::from_widths(&[17, 33])));
    // Right-shift family: k bits move from column 1 into round 2.
    for k in 1..=17u32 {
        let w1 = 17 - k;
        let name = if k == 17 {
            "P>>17 (stitch)".to_string()
        } else {
            format!("P>>{k}")
        };
        if w1 == 0 {
            plans.push((name, MassagePlan::from_widths(&[50])));
        } else {
            plans.push((name, MassagePlan::from_widths(&[w1, 50 - w1])));
        }
    }
    MicroInstance {
        name: "ex3".into(),
        columns,
        specs,
        plans,
    }
}

/// Ex4 (Figure 3c): two 48-bit columns; `P_0` (two 64-bank rounds) vs
/// `P_32×3` (three 32-bank rounds).
pub fn ex4(rows: usize, seed: u64) -> MicroInstance {
    let (columns, specs) = build("ex4", rows, &[48, 48], seed);
    MicroInstance {
        name: "ex4".into(),
        columns,
        specs,
        plans: vec![
            ("P0".into(), MassagePlan::from_widths(&[48, 48])),
            ("P32x3".into(), MassagePlan::from_widths(&[32, 32, 32])),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::{multi_column_sort, verify_sorted, ExecArena, ExecConfig};

    #[test]
    fn paper_ndv_rule() {
        assert_eq!(paper_ndv(10), 1024);
        assert_eq!(paper_ndv(13), 8192);
        assert_eq!(paper_ndv(17), 8192);
        assert_eq!(paper_ndv(64), 8192);
    }

    #[test]
    fn ex3_has_50_plans() {
        // 33 left shifts + P0 + 17 right shifts = 51 named plans; the two
        // stitch extremes denote the same single-round plan.
        let m = ex3(256, 1);
        assert_eq!(m.plans.len(), 51);
        assert_eq!(
            m.plans.first().unwrap().1,
            m.plans.last().unwrap().1,
            "P<<33 and P>>17 are the same stitch-all plan"
        );
        for (_, p) in &m.plans {
            assert!(p.validate(50).is_ok());
        }
    }

    #[test]
    fn all_examples_sort_correctly_under_all_plans() {
        let cfg = ExecConfig::default();
        for m in [ex1(500, 2), ex2(500, 3), ex4(500, 4)] {
            let refs = m.column_refs();
            for (name, plan) in &m.plans {
                let out =
                    multi_column_sort(&refs, None, &m.specs, plan, &cfg, &mut ExecArena::new())
                        .expect("valid sort instance");
                verify_sorted(&refs, &m.specs, &out, true);
                let _ = name;
            }
        }
    }

    #[test]
    fn instance_stats_follow_ndv_rule() {
        let m = ex1(100, 5);
        let inst = m.instance();
        assert_eq!(inst.stats[0].ndv, 1024.0);
        assert_eq!(inst.stats[1].ndv, 8192.0);
    }
}
