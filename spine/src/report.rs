//! Whole-set runs and their reports: `spine run` / `trace` over every
//! workload (each in its own child process), the environment block,
//! `spine compare` and `spine aa`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{obj, parse, Json};
use crate::procfs;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// Count-type metrics that must repeat exactly between two runs of the
/// same build on a workload with [`WorkloadSpec::exact_counts`](crate::spec::WorkloadSpec).
pub const EXACT_COUNTS: [&str; 7] = [
    "allocs_per_op",
    "simd-sort.codes_sorted",
    "simd-sort.invocations",
    "core.rounds",
    "extsort.runs",
    "extsort.spill_bytes",
    "engine.wire_resp_bytes",
];

/// `spine/` as built, and the directory reports and traces go to.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Machine, build and source identification, recorded in every report.
pub fn environment() -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = command_line("git", &["rev-parse", "HEAD"], &repo);
    let dirty = command_line("git", &["status", "--porcelain"], &repo).map(|s| !s.is_empty());
    let mut detected: Vec<Json> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detect {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    detected.push($f.into());
                }
            )*};
        }
        detect!("sse4.2", "avx", "avx2", "bmi2", "avx512f", "avx512bw");
    }
    obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("cpu_model", procfs::cpu_model().into()),
        (
            "avx2_available",
            codemassage::simd_sort::avx2_available().into(),
        ),
        ("cpu_features_detected", Json::Arr(detected)),
        ("compiled_with_avx2", cfg!(target_feature = "avx2").into()),
        ("git_commit", commit.map_or(Json::Null, Json::from)),
        ("git_dirty", dirty.map_or(Json::Null, Json::from)),
        (
            "rustc",
            command_line("rustc", &["-V"], Path::new(".")).map_or(Json::Null, Json::from),
        ),
        (
            "features",
            obj([
                ("telemetry", cfg!(feature = "telemetry").into()),
                (
                    "engine_telemetry_enabled",
                    codemassage::telemetry::is_enabled().into(),
                ),
            ]),
        ),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj([
                            ("name", w.name.into()),
                            ("rows", w.rows.into()),
                            ("threads", w.threads.into()),
                            ("script", w.script.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Arguments of a whole-set run.
#[derive(Debug, Clone)]
pub struct SetArgs {
    /// Data-generation seed.
    pub seed: u64,
    /// Timed seconds per workload.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end).
    pub trace: bool,
    /// `--quick`: passed through to each child.
    pub quick: bool,
    /// Where the report is written.
    pub out: PathBuf,
}

/// Run every workload in its own child process (clean RSS, telemetry
/// collector and allocator counts), echo each child's metric lines, and
/// write one report. Returns whether every workload was correct.
pub fn run_set(args: &SetArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in &lines {
            println!("{l}");
        }
        let result = parse(last).map_err(|e| format!("{}: no result line ({e})", w.name))?;
        let correct = result.get("correct") == Some(&Json::Bool(true)) && out.status.success();
        all_correct &= correct;
        let attempted = result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let notes: Vec<Json> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("# "))
            .map(Json::from)
            .collect();
        rows.push(obj([
            ("name", w.name.into()),
            ("rows", w.rows.into()),
            ("threads", w.threads.into()),
            ("correct", correct.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            (
                "fail_ratio",
                (if attempted > 0.0 {
                    failed / attempted
                } else {
                    1.0
                })
                .into(),
            ),
            ("notes", Json::Arr(notes)),
            (
                "metrics",
                result.get("metrics").cloned().unwrap_or(Json::Obj(vec![])),
            ),
        ]));
    }
    let report = obj([
        ("benchmark", "spine".into()),
        // This benchmark claims no gain; a PR that does states it here.
        ("claim", Json::Null),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("quick", args.quick.into()),
        ("env", environment()),
        ("workloads", Json::Arr(rows)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, report.pretty())
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("report: {}", args.out.display());
    Ok(all_correct)
}

/// What `compare` says about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the bound allows.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Two runs of the same code differ by more than the bound: the
    /// metric cannot resolve a change of that size on this machine.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against base `a` under `bound` (a share of `a`).
pub fn judge(a: f64, b: f64, better: Better, bound: f64, same_code: bool) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if a == 0.0 || worse_by.abs() <= bound {
        Verdict::Unchanged
    } else if same_code {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Regressed
    } else {
        Verdict::Improved
    }
}

fn metric_value(report: &Json, workload: &str, metric: &str) -> Option<f64> {
    report
        .get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare report `b` against base `a`: one row per (workload,
/// end-to-end metric) with both values and the ratio with its base.
/// With `same_code` (the two reports are one build run twice) a
/// difference beyond the bound is `unresolved`, and the count-type
/// metrics of [`EXACT_COUNTS`] must repeat exactly on the workloads
/// whose ops all do the same work. Returns the number of rows that fail:
/// `regressed`, or `unresolved` / inexact under `same_code`.
pub fn compare(a_path: &Path, b_path: &Path, same_code: bool) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = 0;
    println!(
        "{:<13} {:<34} {:>14} {:>14}  {:<26} verdict",
        "workload", "metric", "a (base)", "b", "b/a"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(&a, w.name, m.name),
                metric_value(&b, w.name, m.name),
            ) else {
                continue;
            };
            let verdict = judge(va, vb, m.better, m.bound, same_code);
            bad += usize::from(matches!(verdict, Verdict::Regressed | Verdict::Unresolved));
            println!(
                "{:<13} {:<34} {:>14.4} {:>14.4}  {:<26} {} (bound {}%, {} is better)",
                w.name,
                m.name,
                va,
                vb,
                format!("{:.4} of {:.4} {}", vb / va, va, m.unit),
                verdict.as_str(),
                m.bound * 100.0,
                m.better.as_str(),
            );
        }
        if !same_code || !w.exact_counts {
            continue;
        }
        for name in EXACT_COUNTS {
            let (Some(va), Some(vb)) = (
                metric_value(&a, w.name, name),
                metric_value(&b, w.name, name),
            ) else {
                continue;
            };
            let exact = va == vb;
            bad += usize::from(!exact);
            println!(
                "{:<13} {:<34} {:>14} {:>14}  {:<26} {}",
                w.name,
                name,
                va,
                vb,
                "count",
                if exact { "repeats exactly" } else { "DIFFERS" }
            );
        }
    }
    Ok(bad)
}

/// The layer table of a traced report: every per-layer metric, with the
/// time-valued ones as a share of the traced op.
pub fn print_layer_table(report: &Json) {
    for w in &WORKLOADS {
        let Some(op_ms) = metric_value(report, w.name, "spine.op_ms_p50") else {
            continue;
        };
        println!("\n{} (traced op p50 = {op_ms:.3} ms)", w.name);
        for l in &PER_LAYER {
            let Some(v) = metric_value(report, w.name, l.name) else {
                continue;
            };
            let share = match l.unit {
                "ms" if op_ms > 0.0 && !l.name.starts_with("spine.") => {
                    format!("{:5.1}% of op", 100.0 * v / op_ms)
                }
                "us" if op_ms > 0.0 => format!("{:5.1}% of op", 0.1 * v / op_ms),
                _ => String::new(),
            };
            println!("  {:<36} {:>16.4} {:<8} {share}", l.name, v, l.unit);
        }
    }
}

/// `spine aa`: the whole set — untraced and traced — twice on this
/// build, then `compare` in same-code mode. Returns failing rows.
pub fn aa(seed: u64, seconds: f64, quick: bool) -> Result<usize, String> {
    let dir = out_dir();
    let mut bad = 0;
    for trace in [false, true] {
        let kind = if trace { "trace" } else { "run" };
        let paths = [1, 2].map(|i| dir.join(format!("aa-{kind}-{i}.json")));
        for out in &paths {
            let ok = run_set(&SetArgs {
                seed,
                seconds,
                trace,
                quick,
                out: out.clone(),
            })?;
            if !ok {
                return Err(format!(
                    "{}: a workload failed its correctness gate",
                    out.display()
                ));
            }
        }
        println!("\nA/A compare ({kind}):");
        bad += compare(&paths[0], &paths[1], true)?;
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 104.0, Lower, 0.05, false), Verdict::Unchanged);
        assert_eq!(judge(100.0, 106.0, Lower, 0.05, false), Verdict::Regressed);
        assert_eq!(judge(100.0, 94.0, Lower, 0.05, false), Verdict::Improved);
        assert_eq!(judge(100.0, 94.0, Higher, 0.05, false), Verdict::Regressed);
        assert_eq!(judge(100.0, 106.0, Higher, 0.05, false), Verdict::Improved);
        // the same code run twice cannot regress or improve
        assert_eq!(judge(100.0, 106.0, Lower, 0.05, true), Verdict::Unresolved);
        assert_eq!(judge(100.0, 94.0, Lower, 0.05, true), Verdict::Unresolved);
        assert_eq!(judge(100.0, 101.0, Lower, 0.05, true), Verdict::Unchanged);
        assert_eq!(judge(0.0, 5.0, Lower, 0.05, false), Verdict::Unchanged);
    }

    #[test]
    fn compare_reads_reports_and_counts_failing_rows() {
        let report = |p50: f64, allocs: f64| {
            obj([(
                "workloads",
                Json::Arr(vec![obj([
                    ("name", "sort_wide".into()),
                    (
                        "metrics",
                        obj([
                            (
                                "op_ms_p50",
                                obj([("value", p50.into()), ("unit", "ms".into())]),
                            ),
                            (
                                "allocs_per_op",
                                obj([("value", allocs.into()), ("unit", "count".into())]),
                            ),
                        ]),
                    ),
                ])]),
            )])
        };
        let dir = std::env::temp_dir().join(format!("spine-compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, r: Json| {
            let p = dir.join(name);
            std::fs::write(&p, r.pretty()).unwrap();
            p
        };
        let a = write("a.json", report(100.0, 222.0));
        let same = write("same.json", report(101.0, 222.0));
        let slow = write("slow.json", report(150.0, 223.0));
        assert_eq!(
            metric_value(&load(&a).unwrap(), "sort_wide", "op_ms_p50"),
            Some(100.0)
        );
        assert_eq!(compare(&a, &same, false).unwrap(), 0);
        assert_eq!(compare(&a, &same, true).unwrap(), 0);
        // p50 regressed; allocs within its bound
        assert_eq!(compare(&a, &slow, false).unwrap(), 1);
        // same code: p50 unresolved, and the alloc count must repeat exactly
        assert_eq!(compare(&a, &slow, true).unwrap(), 2);
        assert!(compare(&a, &dir.join("missing.json"), false).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn environment_block_names_the_machine_and_the_build() {
        let env = environment();
        assert!(env.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(env.get("cpu_model").and_then(Json::as_str).is_some());
        assert_eq!(env.get("workloads").unwrap().items().len(), WORKLOADS.len());
        assert!(env.get("features").unwrap().get("telemetry").is_some());
        assert_eq!(parse(&env.pretty()).unwrap(), env);
    }
}
