//! Robustness properties that must hold with faults *off*: the SQL
//! front-end never panics on arbitrary input, and plan validation rejects
//! every malformed [`MassagePlan`] shape before it can reach the
//! executor's unsafe-adjacent kernels.

use codemassage::core::{Bank, PlanError, Round};
use codemassage::prelude::*;
use mcs_engine::sql::parse_query;
use mcs_test_support::{check, Rng};

/// Random bytes (printable-biased so the tokenizer gets past the first
/// character often enough to exercise deep parser states).
fn random_input(rng: &mut Rng) -> String {
    let len = rng.gen_range(0..200usize);
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            if rng.gen_bool(0.85) {
                rng.gen_range(0x20..0x7fu32) as u8
            } else {
                rng.gen_range(0..=255u32) as u8
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A valid query with random pieces chopped out, doubled, or spliced —
/// near-misses stress later parser states than pure noise does.
fn mutated_query(rng: &mut Rng) -> String {
    const SEEDS: &[&str] = &[
        "SELECT a, b, SUM(c) AS s FROM t WHERE a <= 10 AND b BETWEEN 2 AND 7 \
         GROUP BY a, b ORDER BY s DESC",
        "SELECT x, RANK() OVER (PARTITION BY x ORDER BY y DESC) FROM w WHERE z = 1",
        "SELECT a FROM t WHERE a <> 3 ORDER BY a ASC, b DESC",
        "SELECT p, COUNT(DISTINCT q) AS c FROM u GROUP BY p ORDER BY c",
    ];
    let mut s = SEEDS[rng.gen_range(0..SEEDS.len())].to_string();
    for _ in 0..rng.gen_range(1..4usize) {
        let tamper = rng.gen_range(0..4u32);
        // Splice on char boundaries only.
        let cut = |rng: &mut Rng, s: &str| -> usize {
            if s.is_empty() {
                return 0;
            }
            let mut i = rng.gen_range(0..=s.len());
            while !s.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        match tamper {
            0 => {
                // Delete a span.
                let a = cut(rng, &s);
                let b = cut(rng, &s);
                let (a, b) = (a.min(b), a.max(b));
                s.replace_range(a..b, "");
            }
            1 => {
                // Duplicate a span.
                let a = cut(rng, &s);
                let b = cut(rng, &s);
                let (a, b) = (a.min(b), a.max(b));
                let dup = s[a..b].to_string();
                s.insert_str(b, &dup);
            }
            2 => {
                // Insert noise (truncated on a char boundary).
                let at = cut(rng, &s);
                let mut noise = random_input(rng);
                let mut end = noise.len().min(20);
                while !noise.is_char_boundary(end) {
                    end -= 1;
                }
                noise.truncate(end);
                s.insert_str(at, &noise);
            }
            _ => {
                // Replace with garbage byte.
                let at = cut(rng, &s);
                s.insert(at, char::from(rng.gen_range(0x20..0x7fu32) as u8));
            }
        }
    }
    s
}

/// `parse_query` must return `Ok` or `Err` — never panic, never hang —
/// for any input whatsoever.
#[test]
fn parse_query_never_panics_on_arbitrary_input() {
    check("parse_query_never_panics_on_arbitrary_input", 512, |rng| {
        let input = if rng.gen_bool(0.5) {
            random_input(rng)
        } else {
            mutated_query(rng)
        };
        // The property is "returns", not "accepts": drop the result.
        let _ = parse_query(&input);
    });
}

/// Everything the SQL grammar corner-cases: empty input, lone keywords,
/// unterminated constructs, embedded NULs, very long identifiers.
#[test]
fn parse_query_survives_adversarial_corpus() {
    let corpus = [
        "",
        " ",
        "\0",
        "SELECT",
        "SELECT ",
        "SELECT FROM",
        "SELECT , FROM t ORDER BY a",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t WHERE a",
        "SELECT a FROM t WHERE a <",
        "SELECT a FROM t WHERE a BETWEEN",
        "SELECT a FROM t WHERE a BETWEEN 1",
        "SELECT a FROM t WHERE a BETWEEN 1 AND",
        "SELECT a FROM t GROUP BY",
        "SELECT a FROM t ORDER BY",
        "SELECT SUM( FROM t GROUP BY a",
        "SELECT SUM(x FROM t GROUP BY a",
        "SELECT RANK() OVER FROM t",
        "SELECT RANK() OVER ( FROM t",
        "SELECT RANK() OVER (PARTITION BY ORDER BY) FROM t",
        "SELECT a FROM t ORDER BY a DESC DESC",
        "SELECT a FROM t WHERE a = 99999999999999999999999999999",
        "select a from t order by a", // lowercase keywords
        "SELECT \u{1F980} FROM t ORDER BY \u{1F980}",
    ];
    for sql in corpus {
        let _ = parse_query(sql);
    }
    let long_ident = format!("SELECT {0} FROM t ORDER BY {0}", "x".repeat(10_000));
    let _ = parse_query(&long_ident);
    let deep = format!(
        "SELECT a FROM t WHERE {} ORDER BY a",
        "a = 1 AND ".repeat(5_000)
    );
    let _ = parse_query(&deep);
}

/// Plan validation is the gate in front of the executor: zero-width
/// rounds, rounds wider than their bank, width mismatches, and empty
/// plans must all be rejected as typed errors — for every bank size.
#[test]
fn malformed_plans_are_rejected_by_validation() {
    // Empty plan: covers zero bits of an 8-bit key.
    let empty = MassagePlan::new(vec![]);
    assert!(matches!(
        empty.validate(8),
        Err(PlanError::WidthMismatch {
            got: 0,
            expected: 8
        })
    ));

    for bank in [Bank::B16, Bank::B32, Bank::B64] {
        let bits = bank.bits();
        // Zero-width round.
        let zero = MassagePlan::new(vec![Round { width: 0, bank }]);
        assert!(
            matches!(zero.validate(0), Err(PlanError::EmptyRound)),
            "bank {bits}"
        );
        // Round wider than its bank.
        let wide = MassagePlan::new(vec![Round {
            width: bits + 1,
            bank,
        }]);
        assert!(
            matches!(
                wide.validate(bits + 1),
                Err(PlanError::RoundOverflowsBank { .. })
            ),
            "bank {bits}"
        );
        // Total width mismatch against the key.
        let mismatch = MassagePlan::new(vec![Round { width: 4, bank }]);
        assert!(
            matches!(mismatch.validate(9), Err(PlanError::WidthMismatch { .. })),
            "bank {bits}"
        );
    }

    // And the executor refuses such plans as recoverable typed errors
    // rather than corrupting memory or panicking.
    let col = codemassage::columnar::CodeVec::from_u64s(5, [3u64, 1, 2, 0]);
    let specs = [SortSpec::asc(5)];
    let bad = MassagePlan::new(vec![Round {
        width: 9,
        bank: Bank::B16,
    }]);
    let cfg = ExecConfig::default();
    let err = multi_column_sort(&[&col], None, &specs, &bad, &cfg, &mut ExecArena::new());
    assert!(err.is_err(), "executor must reject invalid plans");
}

/// Random plan mutations: take a valid plan, break one invariant, and
/// confirm validation always catches it.
#[test]
fn mutated_plans_never_validate() {
    check("mutated_plans_never_validate", 128, |rng| {
        let total = rng.gen_range(2..=60u32);
        let p0 = MassagePlan::from_widths(&vec![1u32; total as usize]);
        assert!(p0.validate(total).is_ok());

        let mut rounds: Vec<Round> = p0.rounds.clone();
        match rng.gen_range(0..3u32) {
            0 => {
                // Zero a round's width.
                let i = rng.gen_range(0..rounds.len());
                rounds[i].width = 0;
            }
            1 => {
                // Inflate a round beyond 64 bits.
                let i = rng.gen_range(0..rounds.len());
                rounds[i].width = rng.gen_range(65..=128u32);
            }
            _ => {
                // Perturb total width away from the key's.
                let i = rng.gen_range(0..rounds.len());
                rounds[i].width += rng.gen_range(1..=8u32);
            }
        }
        let broken = MassagePlan::new(rounds);
        assert!(
            broken.validate(total).is_err(),
            "mutated plan validated: {broken}"
        );
    });
}

/// The typed-error pipeline end to end with faults *off*: every
/// recoverable misuse surfaces as `Err(EngineError)` with a stable
/// `Display`, and `source()` chains reach the root cause.
#[test]
fn engine_errors_chain_to_their_root_cause() {
    let mut t = Table::new("t");
    t.add_column(Column::from_u64s("a", 3, [1u64, 2, 3]));

    let mut q = Query::named("q");
    q.order_by = vec![OrderKey::asc("missing")];
    q.select = vec!["a".into()];
    let err = run_query(&t, &q, &EngineConfig::default()).unwrap_err();
    assert_eq!(err.to_string(), "unknown column \"missing\" in sort key");

    // SqlError converts into EngineError and keeps its source.
    let sql_err = parse_query("SELECT FROM").unwrap_err();
    let engine_err = EngineError::from(sql_err);
    assert!(engine_err.to_string().contains("SQL parse failed"));
    assert!(std::error::Error::source(&engine_err).is_some());
}
