//! The untraced run of one workload: set-up (several times, median
//! reported), the correctness gate, the timed closed loop, and the
//! end-to-end metrics.

use std::time::{Duration, Instant};

use codemassage::engine::{QueryResult, Session};
use mcs_test_support::allocation_count;

use crate::procfs;
use crate::runner::{digest, local_op, remote_op, session, verify, Recorder, Remote};
use crate::spec::WorkloadSpec;
use crate::stats::{median, percentile, samples_beyond, tail_percentile, MIN_TAIL_SAMPLES};
use crate::workloads::{generate, Instance};

/// Warm-up ops before timing: arenas grow to their high-water mark and
/// (where the cache holds anything) every plan is searched once.
pub const WARM_UP_OPS: usize = 3;

/// The benchmark plays the operator who scrapes the engine's telemetry
/// collector: it is drained every this many ops of a loop, outside the
/// op clock. Undrained, the collector grows with every span up to a
/// 2^20 cap, and `peak_rss_mb` would measure how many ops fitted into
/// the run — a faster engine would read as a memory regression.
pub const DRAIN_EVERY_OPS: u64 = 64;

fn drain_telemetry(ops_done: u64) {
    if ops_done.is_multiple_of(DRAIN_EVERY_OPS) {
        codemassage::telemetry::reset();
    }
}

/// A timed section never reports percentiles over fewer ops than this,
/// however short `--seconds` is.
pub const MIN_OPS: usize = 10;

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Data-generation seed.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// How many times set-up is made (the last one is measured on).
    pub setups: usize,
}

/// What one invocation reports, in the driver's shape.
pub struct Outcome {
    /// The correctness gate passed and no op failed.
    pub correct: bool,
    /// Ops attempted in the timed section.
    pub attempted: u64,
    /// Ops that errored, were shed, or whose digest was wrong.
    pub failed: u64,
    /// `(name, value)` in contract order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample count behind the percentiles.
    pub samples: usize,
    /// Lines for the report: the tail percentile the sample supports.
    pub notes: Vec<String>,
}

/// Where ops are sent.
pub enum Target<'a> {
    /// `Session::query`, from this thread.
    Local(&'a Session<'a>),
    /// One closed loop per loopback connection.
    Remote(&'a mut Remote),
}

/// One timed closed-loop section.
#[derive(Default)]
pub struct Section {
    /// Wall time of every correct op, ms, in completion order.
    pub op_ms: Vec<f64>,
    /// Heap allocations inside each correct op (in-process only: over
    /// loopback two connections allocate at once).
    pub op_allocs: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (error, shed, or wrong digest).
    pub failed: u64,
    /// Wall time of the section, s.
    pub wall_s: f64,
    /// Process CPU time over the section, ms.
    pub cpu_ms: f64,
    /// Heap allocations over the section, all threads.
    pub allocs: u64,
    /// Share of the machine's CPU time over the section that the
    /// hypervisor gave to someone else (`steal` of `/proc/stat`). Not a
    /// property of the engine: it says how far to trust the timings.
    pub steal_ratio: f64,
}

impl Section {
    /// Add another section of the same workload (sections are run in
    /// alternating slices so that slow drift of the machine hits both
    /// sides of a comparison alike).
    pub fn absorb(&mut self, other: Section) {
        let wall = self.wall_s + other.wall_s;
        if wall > 0.0 {
            self.steal_ratio =
                (self.steal_ratio * self.wall_s + other.steal_ratio * other.wall_s) / wall;
        }
        self.op_ms.extend(other.op_ms);
        self.op_allocs.extend(other.op_allocs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s = wall;
        self.cpu_ms += other.cpu_ms;
        self.allocs += other.allocs;
    }

    /// Nearest-rank percentile of the correct ops' wall times, ms.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

/// Run ops against `target` for `seconds` (and at least [`MIN_OPS`]
/// ops per loop). Each op's digest is computed after its clock stops
/// and compared with `expected`; `on_op` then sees the op's results
/// (in-process only).
pub fn timed(
    inst: &Instance,
    target: Target<'_>,
    expected: u64,
    seconds: f64,
    rec: &mut Recorder,
    mut on_op: impl FnMut(&[QueryResult], f64),
) -> Section {
    let window = Duration::from_secs_f64(seconds);
    let mut s = Section::default();
    let allocs0 = allocation_count();
    let cpu0 = procfs::process_cpu_ms();
    let (steal0, ticks0) = procfs::machine_steal_ticks();
    let t0 = Instant::now();
    match target {
        Target::Local(session) => {
            s.op_ms.reserve(1 << 16);
            s.op_allocs.reserve(1 << 16);
            while t0.elapsed() < window || s.op_ms.len() < MIN_OPS {
                s.attempted += 1;
                let a = allocation_count();
                let t = Instant::now();
                let op = rec.begin_op();
                let out = local_op(session, &inst.steps, rec, op);
                rec.end();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let allocs = allocation_count() - a;
                match out {
                    Ok(results) if digest(&results) == expected => {
                        s.op_ms.push(ms);
                        s.op_allocs.push(allocs as f64);
                        on_op(&results, ms);
                    }
                    Ok(_) => {
                        eprintln!("spine: op {op}: result digest differs from the verified one");
                        s.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("spine: op {op}: {e}");
                        s.failed += 1;
                    }
                }
                drain_telemetry(s.attempted);
                if s.failed > 0 && s.failed == s.attempted && s.attempted >= MIN_OPS as u64 {
                    break; // nothing works: do not spin until a sample appears
                }
            }
        }
        Target::Remote(remote) => {
            let steps = &inst.steps;
            let loops: Vec<(Vec<f64>, u64, u64, Recorder)> = std::thread::scope(|scope| {
                let handles: Vec<_> = remote
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(conn, client)| {
                        let mut rec = rec.sibling(conn as u64, inst.connections as u64);
                        scope.spawn(move || {
                            let mut ms = Vec::with_capacity(1 << 16);
                            let (mut attempted, mut failed) = (0u64, 0u64);
                            while t0.elapsed() < window || ms.len() < MIN_OPS {
                                attempted += 1;
                                let t = Instant::now();
                                let op = rec.begin_op();
                                let out = remote_op(client, steps, &mut rec, op);
                                rec.end();
                                let dt = t.elapsed().as_secs_f64() * 1e3;
                                match out {
                                    Ok(results) if digest(&results) == expected => ms.push(dt),
                                    Ok(_) => {
                                        eprintln!("spine: connection {conn}: wrong result digest");
                                        failed += 1;
                                    }
                                    Err(e) => {
                                        eprintln!("spine: connection {conn}: {e}");
                                        failed += 1;
                                    }
                                }
                                drain_telemetry(attempted);
                                if failed == attempted && attempted >= MIN_OPS as u64 {
                                    break;
                                }
                            }
                            (ms, attempted, failed, rec)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("connection loop panicked"))
                    .collect()
            });
            for (ms, attempted, failed, r) in loops {
                s.op_ms.extend(ms);
                s.attempted += attempted;
                s.failed += failed;
                rec.absorb(r);
            }
        }
    }
    s.wall_s = t0.elapsed().as_secs_f64();
    s.cpu_ms = procfs::process_cpu_ms() - cpu0;
    s.allocs = allocation_count() - allocs0;
    let (steal1, ticks1) = procfs::machine_steal_ticks();
    s.steal_ratio = (steal1 - steal0) as f64 / (ticks1 - ticks0).max(1) as f64;
    s
}

/// A workload set up and warm: the instance plus whatever serves it.
pub struct Ready {
    /// The generated instance.
    pub inst: Instance,
    /// The loopback side, for workloads with connections.
    pub remote: Option<Remote>,
}

/// Data generation + registration + server start + connect + prepare.
/// The in-process session borrows the instance, so the caller creates
/// it (see [`warm_up`]) — still inside the set-up clock.
pub fn set_up(spec: &WorkloadSpec, seed: u64) -> Result<Ready, String> {
    let inst = generate(spec, seed);
    let remote = if inst.connections > 0 {
        Some(Remote::start(&inst)?)
    } else {
        None
    };
    Ok(Ready { inst, remote })
}

/// The warm-up ops, on whichever side the timed ops will run.
pub fn warm_up(
    inst: &Instance,
    session: &Session<'_>,
    remote: Option<&mut Remote>,
) -> Result<(), String> {
    let mut off = Recorder::new(false);
    match remote {
        None => {
            for _ in 0..WARM_UP_OPS {
                local_op(session, &inst.steps, &mut off, 0)?;
            }
        }
        Some(remote) => {
            for client in &mut remote.clients {
                for _ in 0..WARM_UP_OPS {
                    remote_op(client, &inst.steps, &mut off, 0)?;
                }
            }
        }
    }
    Ok(())
}

/// One full set-up, timed and then discarded.
fn throwaway_set_up(spec: &WorkloadSpec, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let mut ready = set_up(spec, seed)?;
    let sess = session(&ready.inst);
    warm_up(&ready.inst, &sess, ready.remote.as_mut())?;
    let s = t.elapsed().as_secs_f64();
    if let Some(r) = ready.remote.take() {
        r.stop();
    }
    Ok(s)
}

/// The outcome of a run that could not be set up or whose results the
/// oracle rejects: incorrect, no metrics.
pub fn gate_failed(reason: &str) -> Outcome {
    eprintln!("spine: correctness gate failed: {reason}");
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        samples: 0,
        notes: Vec::new(),
    }
}

/// The untraced run: every end-to-end metric of `spec`.
pub fn run(spec: &WorkloadSpec, args: RunArgs) -> Outcome {
    let mut setups = Vec::new();
    for _ in 1..args.setups {
        match throwaway_set_up(spec, args.seed) {
            Ok(s) => setups.push(s),
            Err(e) => return gate_failed(&e),
        }
    }
    let t = Instant::now();
    let mut ready = match set_up(spec, args.seed) {
        Ok(r) => r,
        Err(e) => return gate_failed(&e),
    };
    let sess = session(&ready.inst);
    if let Err(e) = warm_up(&ready.inst, &sess, ready.remote.as_mut()) {
        return gate_failed(&e);
    }
    setups.push(t.elapsed().as_secs_f64());

    // The digest every timed op must reproduce comes from one more op;
    // the oracle then vouches for it after the timed section, so that
    // the oracle's own memory is not in the peak resident set.
    let mut off = Recorder::new(false);
    let expected = match local_op(&sess, &ready.inst.steps, &mut off, 0) {
        Ok(results) => digest(&results),
        Err(e) => return gate_failed(&e),
    };
    let target = match ready.remote.as_mut() {
        Some(r) => Target::Remote(r),
        None => Target::Local(&sess),
    };
    let mut s = timed(
        &ready.inst,
        target,
        expected,
        args.seconds,
        &mut off,
        |_, _| {},
    );
    let peak_rss_mb = procfs::peak_rss_mb();
    match verify(&ready.inst, &sess, ready.remote.as_mut()) {
        Ok(verified) if verified == expected => {}
        Ok(_) => return gate_failed("the timed ops' digest is not the verified one"),
        Err(e) => return gate_failed(&e),
    }
    if let Some(r) = ready.remote.take() {
        r.stop();
    }
    if s.op_ms.is_empty() {
        s.failed = s.failed.max(1);
    }

    let ok = s.op_ms.len();
    let allocs_per_op = if s.op_allocs.is_empty() {
        s.allocs as f64 / s.attempted.max(1) as f64
    } else {
        median(&s.op_allocs)
    };
    let tail = tail_percentile(ok);
    let note = format!(
        "{ok} correct ops of {} in {:.2} s; {} samples beyond p90; highest percentile with \
         >= {MIN_TAIL_SAMPLES} samples beyond it: p{tail} = {:.4} ms; the host stole {:.1}% of \
         the machine's CPU time",
        s.attempted,
        s.wall_s,
        samples_beyond(ok, 90.0),
        s.percentile(tail),
        100.0 * s.steal_ratio,
    );
    Outcome {
        correct: s.failed == 0,
        attempted: s.attempted,
        failed: s.failed,
        samples: ok,
        notes: vec![note],
        metrics: vec![
            ("setup_s", median(&setups)),
            ("op_ms_p50", s.percentile(50.0)),
            ("op_ms_p90", s.percentile(90.0)),
            ("ops_per_s", ok as f64 / s.wall_s),
            ("cpu_ms_per_op", s.cpu_ms / s.attempted.max(1) as f64),
            ("allocs_per_op", allocs_per_op),
            ("peak_rss_mb", peak_rss_mb),
        ],
    }
}
