//! # mcs-faults
//!
//! Deterministic fault injection for the code-massage workspace. Library
//! crates wire named [`fault_point!`] hooks into the places production
//! assumptions can break — planner search, cost evaluation, per-round
//! sorting, worker spawn — and the chaos suite arms them one at a time to
//! prove the pipeline degrades gracefully instead of aborting.
//!
//! The crate follows the `mcs-telemetry` pattern: everything exists in two
//! builds selected by the `enabled` cargo feature (off by default):
//!
//! * **enabled** (the facade's `--features faults`, or `--features
//!   mcs-faults/enabled` on any package) — fault points consult a
//!   process-global registry of armed faults.
//!   Arming is explicit and deterministic: a fault fires always, once, on
//!   the n-th traversal, or with a seeded pseudo-random probability — no
//!   wall-clock, no global entropy, so every chaos run is replayable.
//! * **disabled** — [`should_fire`] is a `const fn` returning `false`,
//!   `fault_point!` folds to a constant, and the hot paths pay nothing.
//!
//! Even in the enabled build, unarmed processes pay a single relaxed
//! atomic load per traversal: the registry mutex is only touched while at
//! least one fault is armed.
//!
//! ```
//! use mcs_faults::{fault_point, points, FireMode};
//!
//! fn search() -> Result<&'static str, &'static str> {
//!     if fault_point!(points::PLANNER_SEARCH) {
//!         return Err("injected");
//!     }
//!     Ok("plan")
//! }
//!
//! assert_eq!(search(), Ok("plan")); // nothing armed (or feature off)
//! # #[cfg(feature = "enabled")]
//! mcs_faults::with_armed(&[(points::PLANNER_SEARCH, FireMode::Always)], || {
//!     assert_eq!(search(), Err("injected"));
//! });
//! assert_eq!(search(), Ok("plan")); // disarmed again
//! ```
//!
//! ## Registering fault points
//!
//! Every wired name lives in [`points`] as a `const`, and [`points::ALL`]
//! is the registry of record: a new `fault_point!` site must add its name
//! there (and to the chaos suite) so it cannot be dropped silently. The
//! constants exist in both builds, so tests can pin the names without the
//! feature on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The canonical fault-point names wired into the workspace.
///
/// Names are dotted `crate.site` paths mirroring the telemetry span
/// naming. Keep [`points::ALL`] in sync — `tests/chaos.rs` and the span registry
/// test iterate it.
pub mod points {
    /// Planner search (ROGA / RRS) fails outright before costing a plan.
    pub const PLANNER_SEARCH: &str = "planner.search.fail";
    /// The ρ deadline starves the search: it returns timed-out with zero
    /// plans costed and no finite cost estimate.
    pub const PLANNER_STARVE: &str = "planner.search.starve";
    /// The cost model yields non-finite (NaN) estimates.
    pub const COST_NAN: &str = "cost.eval.nan";
    /// A sorting round of the multi-column sort executor fails.
    pub const CORE_ROUND_SORT: &str = "core.round.sort";
    /// A parallel-sort worker thread panics after being spawned.
    pub const SIMD_WORKER_PANIC: &str = "simd.worker.panic";
    /// Latency injected before the massage phase (see [`delay_point`]).
    ///
    /// [`delay_point`]: crate::delay_point
    pub const EXEC_DELAY_MASSAGE: &str = "exec.delay.massage";
    /// Latency injected at the top of each executor round.
    pub const EXEC_DELAY_ROUND: &str = "exec.delay.round";
    /// Latency injected before each bucket of the budgeted sort.
    pub const EXEC_DELAY_SPILL: &str = "exec.delay.spill";

    /// Every registered fault point.
    pub const ALL: &[&str] = &[
        PLANNER_SEARCH,
        PLANNER_STARVE,
        COST_NAN,
        CORE_ROUND_SORT,
        SIMD_WORKER_PANIC,
        EXEC_DELAY_MASSAGE,
        EXEC_DELAY_ROUND,
        EXEC_DELAY_SPILL,
    ];
}

/// When an armed fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireMode {
    /// Fire on every traversal.
    Always,
    /// Fire on the first traversal only, then stay dormant.
    Once,
    /// Fire on the `n`-th traversal (1-based) only.
    Nth(u64),
    /// Fire pseudo-randomly with probability `millionths / 1_000_000`,
    /// from a dedicated xorshift64* stream seeded with `seed` — the
    /// sequence of fire/no-fire decisions is a pure function of the seed
    /// and the traversal order.
    Probability {
        /// Firing probability in millionths (1_000_000 = always).
        millionths: u32,
        /// Seed of the per-fault decision stream.
        seed: u64,
    },
}

/// Check an armed fault and report whether it fires at this traversal.
///
/// This is what [`fault_point!`] expands to; instrumented code should use
/// the macro so call sites stay greppable.
#[macro_export]
macro_rules! fault_point {
    ($name:expr) => {
        $crate::should_fire($name)
    };
}

#[cfg(feature = "enabled")]
mod active {
    use super::FireMode;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct FaultState {
        mode: FireMode,
        traversals: u64,
        fired: u64,
        rng: u64,
    }

    /// Number of currently armed faults — the lock-free fast path.
    static ARMED: AtomicUsize = AtomicUsize::new(0);

    fn registry() -> MutexGuard<'static, HashMap<String, FaultState>> {
        static R: OnceLock<Mutex<HashMap<String, FaultState>>> = OnceLock::new();
        R.get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn xorshift64star(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Arm `name` with the given firing mode, replacing any previous
    /// arming (and resetting its traversal/fired counts).
    pub fn arm(name: &str, mode: FireMode) {
        let mut r = registry();
        let seed = match mode {
            // xorshift needs a non-zero state; any other seed is used as-is
            // so distinct seeds give distinct streams.
            FireMode::Probability { seed: 0, .. } => 0x9E37_79B9_7F4A_7C15,
            FireMode::Probability { seed, .. } => seed,
            _ => 1,
        };
        if r.insert(
            name.to_string(),
            FaultState {
                mode,
                traversals: 0,
                fired: 0,
                rng: seed,
            },
        )
        .is_none()
        {
            ARMED.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Disarm `name`. Returns whether it was armed.
    pub fn disarm(name: &str) -> bool {
        let was = registry().remove(name).is_some();
        if was {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
        was
    }

    /// Disarm every fault and reset the injected delay to zero.
    pub fn disarm_all() {
        let mut r = registry();
        let n = r.len();
        r.clear();
        ARMED.fetch_sub(n, Ordering::SeqCst);
        super::delay::set_delay_micros(0);
    }

    /// Whether the fault `name` fires at this traversal. Counts the
    /// traversal when the fault is armed; unarmed processes take only a
    /// relaxed atomic load.
    pub fn should_fire(name: &str) -> bool {
        if ARMED.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut r = registry();
        let Some(s) = r.get_mut(name) else {
            return false;
        };
        s.traversals += 1;
        let fire = match s.mode {
            FireMode::Always => true,
            FireMode::Once => s.fired == 0,
            FireMode::Nth(n) => s.traversals == n,
            FireMode::Probability { millionths, .. } => {
                xorshift64star(&mut s.rng) % 1_000_000 < u64::from(millionths)
            }
        };
        if fire {
            s.fired += 1;
        }
        fire
    }

    /// How many times the armed fault `name` has been traversed (0 when
    /// not armed; counts reset on re-arm).
    pub fn traversals(name: &str) -> u64 {
        registry().get(name).map_or(0, |s| s.traversals)
    }

    /// How many times the armed fault `name` has fired.
    pub fn fired(name: &str) -> u64 {
        registry().get(name).map_or(0, |s| s.fired)
    }

    /// Whether this build compiled the fault points live
    /// (`mcs-faults/enabled`).
    pub const fn is_enabled() -> bool {
        true
    }

    fn chaos_lock() -> MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        L.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` with the given faults armed, serialized against other
    /// [`with_armed`] callers (the registry is process-global, so chaos
    /// tests in one binary must not overlap), and disarm everything after
    /// — including on panic.
    pub fn with_armed<T>(faults: &[(&str, FireMode)], f: impl FnOnce() -> T) -> T {
        struct DisarmOnDrop;
        impl Drop for DisarmOnDrop {
            fn drop(&mut self) {
                disarm_all();
            }
        }
        let _serial = chaos_lock();
        let _cleanup = DisarmOnDrop;
        for &(name, mode) in faults {
            arm(name, mode);
        }
        f()
    }
}

#[cfg(not(feature = "enabled"))]
mod active {
    use super::FireMode;

    /// No-op: the fault stays a no-op in this build.
    #[inline(always)]
    pub fn arm(_name: &str, _mode: FireMode) {}

    /// No-op; never armed.
    #[inline(always)]
    pub fn disarm(_name: &str) -> bool {
        false
    }

    /// No-op.
    #[inline(always)]
    pub fn disarm_all() {}

    /// Never fires in this build.
    #[inline(always)]
    pub const fn should_fire(_name: &str) -> bool {
        false
    }

    /// Always 0 in this build.
    #[inline(always)]
    pub fn traversals(_name: &str) -> u64 {
        0
    }

    /// Always 0 in this build.
    #[inline(always)]
    pub fn fired(_name: &str) -> u64 {
        0
    }

    /// Whether this build compiled the fault points live
    /// (`mcs-faults/enabled`).
    #[inline(always)]
    pub const fn is_enabled() -> bool {
        false
    }

    /// Runs `f` directly; nothing is armed in this build.
    #[inline(always)]
    pub fn with_armed<T>(_faults: &[(&str, FireMode)], f: impl FnOnce() -> T) -> T {
        f()
    }
}

pub use active::{arm, disarm, disarm_all, fired, is_enabled, should_fire, traversals, with_armed};

mod delay {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Microseconds a firing delay point sleeps. Process-global so one
    /// knob drives every armed `exec.delay.*` point; reset to 0 by
    /// `disarm_all` (and therefore by `with_armed`'s cleanup).
    static DELAY_MICROS: AtomicU64 = AtomicU64::new(0);

    /// Set how long a firing delay point sleeps, in microseconds.
    pub fn set_delay_micros(micros: u64) {
        DELAY_MICROS.store(micros, Ordering::SeqCst);
    }

    /// The currently configured delay in microseconds.
    pub fn delay_micros() -> u64 {
        DELAY_MICROS.load(Ordering::Relaxed)
    }
}

pub use delay::{delay_micros, set_delay_micros};

/// Traverse a latency fault point: when `name` is armed and fires, sleep
/// for the globally configured [`delay_micros`]. Unlike error-injecting
/// [`fault_point!`] sites, a delay point never alters control flow — it
/// only stretches the phase it guards, so chaos tests can force a
/// deadline to expire *inside* a chosen phase deterministically.
///
/// In the disabled build (and for unarmed points, and at the default
/// zero delay) this is a no-op.
#[inline]
pub fn delay_point(name: &str) {
    if should_fire(name) {
        let micros = delay_micros();
        if micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;

        #[test]
        fn unarmed_points_never_fire() {
            with_armed(&[], || {
                assert!(!fault_point!(points::PLANNER_SEARCH));
                assert_eq!(traversals(points::PLANNER_SEARCH), 0);
            });
        }

        #[test]
        fn always_fires_and_counts() {
            with_armed(&[(points::COST_NAN, FireMode::Always)], || {
                assert!(should_fire(points::COST_NAN));
                assert!(should_fire(points::COST_NAN));
                assert_eq!(traversals(points::COST_NAN), 2);
                assert_eq!(fired(points::COST_NAN), 2);
                // A different point stays cold.
                assert!(!should_fire(points::CORE_ROUND_SORT));
            });
            assert!(!should_fire(points::COST_NAN), "disarmed after with_armed");
        }

        #[test]
        fn once_fires_exactly_once() {
            with_armed(&[(points::SIMD_WORKER_PANIC, FireMode::Once)], || {
                assert!(should_fire(points::SIMD_WORKER_PANIC));
                assert!(!should_fire(points::SIMD_WORKER_PANIC));
                assert!(!should_fire(points::SIMD_WORKER_PANIC));
                assert_eq!(fired(points::SIMD_WORKER_PANIC), 1);
                assert_eq!(traversals(points::SIMD_WORKER_PANIC), 3);
            });
        }

        #[test]
        fn nth_fires_on_exact_traversal() {
            with_armed(&[(points::CORE_ROUND_SORT, FireMode::Nth(3))], || {
                assert!(!should_fire(points::CORE_ROUND_SORT));
                assert!(!should_fire(points::CORE_ROUND_SORT));
                assert!(should_fire(points::CORE_ROUND_SORT));
                assert!(!should_fire(points::CORE_ROUND_SORT));
                assert_eq!(fired(points::CORE_ROUND_SORT), 1);
            });
        }

        #[test]
        fn probability_is_deterministic_per_seed() {
            let run = |seed: u64| -> Vec<bool> {
                with_armed(
                    &[(
                        points::PLANNER_STARVE,
                        FireMode::Probability {
                            millionths: 500_000,
                            seed,
                        },
                    )],
                    || {
                        (0..64)
                            .map(|_| should_fire(points::PLANNER_STARVE))
                            .collect()
                    },
                )
            };
            let a = run(42);
            let b = run(42);
            assert_eq!(a, b, "same seed, same decisions");
            assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
            let c = run(43);
            assert_ne!(a, c, "different seed, different stream");
        }

        #[test]
        fn disarm_on_panic_inside_with_armed() {
            let r = std::panic::catch_unwind(|| {
                with_armed(&[(points::COST_NAN, FireMode::Always)], || {
                    panic!("boom");
                })
            });
            assert!(r.is_err());
            assert!(!should_fire(points::COST_NAN), "cleanup ran despite panic");
        }

        #[test]
        fn rearm_resets_counts() {
            with_armed(&[(points::COST_NAN, FireMode::Always)], || {
                assert!(should_fire(points::COST_NAN));
                arm(points::COST_NAN, FireMode::Once);
                assert_eq!(traversals(points::COST_NAN), 0);
                assert!(should_fire(points::COST_NAN));
                assert!(!should_fire(points::COST_NAN));
            });
        }
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_inert() {
        assert!(!is_enabled());
        arm(points::COST_NAN, FireMode::Always);
        assert!(!fault_point!(points::COST_NAN));
        assert_eq!(traversals(points::COST_NAN), 0);
        assert_eq!(fired(points::COST_NAN), 0);
        let ran = with_armed(&[(points::COST_NAN, FireMode::Always)], || {
            !should_fire(points::COST_NAN)
        });
        assert!(ran);
        disarm_all();
    }

    #[test]
    fn registry_lists_every_point() {
        assert_eq!(points::ALL.len(), 8);
        let mut sorted = points::ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), points::ALL.len(), "duplicate point names");
    }

    #[test]
    fn unarmed_delay_point_is_a_no_op() {
        // Regardless of build: nothing armed, nothing slept — and a
        // configured delay alone does not make unarmed points sleep.
        set_delay_micros(50_000);
        let t = std::time::Instant::now();
        delay_point(points::EXEC_DELAY_ROUND);
        assert!(t.elapsed() < std::time::Duration::from_millis(40));
        set_delay_micros(0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn armed_delay_point_sleeps_and_with_armed_resets_delay() {
        with_armed(&[(points::EXEC_DELAY_SPILL, FireMode::Always)], || {
            set_delay_micros(20_000);
            let t = std::time::Instant::now();
            delay_point(points::EXEC_DELAY_SPILL);
            assert!(
                t.elapsed() >= std::time::Duration::from_millis(15),
                "armed delay point must stretch the phase"
            );
            assert!(fired(points::EXEC_DELAY_SPILL) > 0);
        });
        assert_eq!(delay_micros(), 0, "disarm_all resets the delay");
    }
}
