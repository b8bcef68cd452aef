//! `spine` — the repo's benchmark: six workloads, end-to-end metrics
//! with regression bounds, and a per-layer time budget measured from
//! outside the engine. See `spine/README.md`.
//!
//! ```text
//! spine run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! spine trace [--seed N] [--seconds S] [--quick] [--out FILE]
//! spine compare A.json B.json [--same-code]
//! spine aa    [--seed N] [--seconds S] [--quick]
//! spine list
//! ```
//!
//! `run --workload W` is what `BENCHMARK.json`'s command invokes: one
//! workload in this process, every metric printed by name with its
//! unit, and one JSON object as the last line of standard output.
//! Without `--workload`, each workload runs in a child process of its
//! own and one report is written.

mod json;
mod measure;
mod procfs;
mod report;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{obj, Json};
use mcs_test_support::CountingAlloc;
use measure::{Outcome, RunArgs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups made per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Default length of a timed section, s (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 10.0;
/// `--quick`: one set-up and a one-second section (same rows, same
/// correctness gate) — a smoke test, not a measurement.
const QUICK_SECONDS: f64 = 1.0;

/// Parsed command-line flags (every flag takes one value except
/// `--quick` and `--same-code`).
struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    same_code: bool,
    out: Option<PathBuf>,
}

impl Flags {
    /// `--seconds`, or the default for the mode.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        same_code: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => f.workload = Some(value("--workload")?),
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => f.quick = true,
            "--same-code" => f.same_code = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

/// One workload in this process, in the driver's output shape.
fn run_one(name: &str, f: &Flags) -> Result<bool, String> {
    let spec = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let out_dir = report::out_dir();
    // Spill files go under the benchmark's own directory: the engine
    // spills to `std::env::temp_dir()`, which honours TMPDIR.
    let tmp = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let args = RunArgs {
        seed: f.seed,
        seconds: f.seconds(),
        setups: if f.quick { 1 } else { SETUPS },
    };
    let Outcome {
        correct,
        attempted,
        failed,
        metrics,
        samples,
        notes,
    } = if f.trace {
        trace::run(spec, args, &out_dir)
    } else {
        measure::run(spec, args)
    };

    println!(
        "# {name}: seed {} seconds {} trace {} rows {} threads {} samples {samples}",
        args.seed,
        args.seconds,
        u8::from(f.trace),
        spec.rows,
        spec.threads
    );
    for note in &notes {
        println!("# {name}: {note}");
    }
    let unit_of = |metric: &str| {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == metric)
            .map_or("", |(_, u)| u)
    };
    for (metric, value) in &metrics {
        println!("{name:<13} {metric:<36} {value:>18.6} {}", unit_of(metric));
    }
    let result = obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(metric, value)| {
                        (
                            metric.to_string(),
                            obj([("value", (*value).into()), ("unit", unit_of(metric).into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.compact());
    Ok(correct)
}

fn set_args(f: &Flags, trace: bool) -> report::SetArgs {
    let kind = if trace { "trace" } else { "run" };
    report::SetArgs {
        seed: f.seed,
        seconds: f.seconds(),
        trace,
        quick: f.quick,
        out: f
            .out
            .clone()
            .unwrap_or_else(|| report::out_dir().join(format!("{kind}-seed{}.json", f.seed))),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: spine run|trace|compare|aa|list (see spine/README.md)")?;
    let f = parse_flags(rest)?;
    match cmd.as_str() {
        "run" => match &f.workload {
            Some(name) => run_one(name, &f),
            None => report::run_set(&set_args(&f, f.trace)),
        },
        "trace" => {
            let set = set_args(&f, true);
            let ok = report::run_set(&set)?;
            let text = std::fs::read_to_string(&set.out).map_err(|e| e.to_string())?;
            report::print_layer_table(&json::parse(&text)?);
            Ok(ok)
        }
        "compare" => match f.positional.as_slice() {
            [a, b] => Ok(report::compare(a.as_ref(), b.as_ref(), f.same_code)? == 0),
            _ => Err("usage: spine compare A.json B.json [--same-code]".into()),
        },
        "aa" => {
            let seconds = f.seconds();
            let bad = report::aa(f.seed, seconds, f.quick)?;
            println!("\nA/A: {bad} row(s) unresolved or inexact");
            Ok(bad == 0)
        }
        "list" => {
            print!("{}", spec::list());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
