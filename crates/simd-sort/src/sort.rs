//! The sort entry point: the size-driven kernel dispatch
//! ([`kernel_for`]) every round, morsel and spilled chunk goes through,
//! and the merge-sort assembly (padding, the three phases, runtime
//! dispatch between the AVX2 and portable kernels) it keeps reachable as
//! [`SortKernel::MergeSort`].

use crate::kernel::{merge_pass, phase1_block_sort, Kernel};
use crate::key::{sealed::Sealed as _, Key};
use crate::multiway::multiway_pass;
use crate::ovc;
use crate::phase;
use crate::radix;
use crate::scalar;
use crate::scratch::SortScratch;
use mcs_cancel::CancelToken;
use std::time::Instant;

/// Inputs shorter than this run serially even when the caller asks for
/// multiple threads — the morsel-driven group sort and every
/// [`crate::for_each_chunk`] phase (massage, gather, boundary scan) alike,
/// so the phases of one round always agree about "parallel". Below it,
/// thread spawn + merge overhead exceeds the work itself (4096 rows is
/// roughly where spawn cost amortizes).
pub const PARALLEL_CUTOFF_ROWS: usize = 4096;

/// Under [`SortKernel::MergeSort`], inputs up to this length use
/// insertion sort instead of the full SIMD pipeline, whose padding and
/// per-invocation overhead dominate there. ([`SortKernel::Auto`]
/// dispatches on its own constants.)
pub const MERGE_SORT_INSERTION_MAX_ROWS: usize = 192;

/// Longest input the insertion kernel sorts under [`SortKernel::Auto`].
/// Read off the `insertion`/`packed` rows of the committed crossover
/// table (`results/kernel_probe.txt`): at 16 rows per group insertion is
/// within 10 % of the packed-word sort in the 16/32-bit banks and well
/// ahead of it in the 64-bit bank; at 24 rows the packed-word sort (the
/// standard sort switches to a branchless small-sort network there) is
/// level in the 64-bit bank and almost twice as fast in the narrow ones.
pub const INSERTION_MAX_ROWS: usize = 16;

/// Longest input the packed-word kernel sorts under [`SortKernel::Auto`];
/// longer inputs radix-sort. Read off the `packed`/`radix` rows of the
/// same table. The crossover depends on the bank — the radix kernel pays
/// one 256-entry prefix sum per key byte, the packed kernel sorts 8-byte
/// words in every bank — and lies at 64 rows in the 16-bit bank, between
/// 128 and 192 in the 32-bit bank and near 2048 in the 64-bit bank; 128
/// is the probed length with the smallest worst-case loss (ns per row)
/// over the three. Also bounds the packed kernel's scratch, which is why
/// that scratch is O(1) in the row count, and the 64-bit bank's
/// worst-case tie repair.
pub const PACKED_MAX_ROWS: usize = 128;

/// The kernel [`SortKernel::Auto`] runs on an input of a given length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeKernel {
    /// [`crate::insertion_sort_pairs`].
    Insertion,
    /// [`crate::sort_pairs_packed`].
    Packed,
    /// The scratch-backed LSD radix sort ([`crate::radix`]).
    Radix,
}

/// The dispatch rule of [`SortKernel::Auto`]: by input length alone.
/// The cost model prices rounds with this same function, so what ROGA
/// ranks is what the sorter runs.
#[inline]
pub fn kernel_for(n: usize) -> SizeKernel {
    if n <= INSERTION_MAX_ROWS {
        SizeKernel::Insertion
    } else if n <= PACKED_MAX_ROWS {
        SizeKernel::Packed
    } else {
        SizeKernel::Radix
    }
}

/// Which sort family [`SortableKey::sort_pairs_with_scratch`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SortKernel {
    /// Size-driven dispatch ([`kernel_for`]): insertion → packed-word →
    /// LSD radix. The fastest kernel at every length on every machine
    /// measured, hence the default.
    #[default]
    Auto,
    /// The paper's SIMD merge-sort (in-register networks, in-cache
    /// bitonic merges, out-of-cache loser tree) above
    /// [`MERGE_SORT_INSERTION_MAX_ROWS`], insertion sort below it. Kept for
    /// the paper-figure bins and the Eq. 5 cost-model tests, whose subject
    /// is that sort.
    MergeSort,
}

/// Tuning knobs of the sort substrate; the merge-sort ones mirror the
/// constants of the paper's cost model (§4).
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Bytes a run may occupy before merging goes out-of-cache
    /// (the paper's `0.5 · M_L2`; per-element footprint counts key +
    /// payload bytes). Default: 1 MiB (half the development machine's
    /// 2 MiB L2; keep this equal to `0.5 · M_L2` of the cost model's
    /// `MachineSpec` so estimated and actual merge passes agree).
    pub in_cache_bytes: usize,
    /// Fan-out `F` of the out-of-cache merge tree. Default: 8, which the
    /// cost model's Eq. 8 reads from here.
    pub fanout: usize,
    /// Force the portable kernel even when AVX2 is available (used by
    /// tests and the SIMD-vs-portable benches).
    pub force_portable: bool,
    /// Which sort family runs. Default: [`SortKernel::Auto`].
    pub kernel: SortKernel,
    /// Cooperative cancellation token, polled at every phase boundary,
    /// every radix pass and every [`mcs_cancel::CHECK_INTERVAL`] merge
    /// pops. The sort entry
    /// points stay infallible: a fired token makes them return early
    /// *leaving garbage in `keys`/`oids`* — fallible callers re-check the
    /// token after the call and surface a typed error. The default
    /// ([`CancelToken::none`]) never fires and costs one branch per poll.
    pub cancel: CancelToken,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            in_cache_bytes: 1024 * 1024,
            fanout: 8,
            force_portable: false,
            kernel: SortKernel::Auto,
            cancel: CancelToken::none(),
        }
    }
}

impl SortConfig {
    /// Run length (in elements) at which merging leaves the cache-resident
    /// phase, as a multiple of `L`.
    fn in_cache_run<K: Key>(&self, l: usize) -> usize {
        let per_elem = core::mem::size_of::<K>() + core::mem::size_of::<u32>();
        let run = self.in_cache_bytes / per_elem;
        (run / l).max(1) * l
    }
}

/// Whether AVX2 is available (memoized).
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}

/// The generic three-phase merge-sort over any [`Kernel`], working out
/// of `scratch`.
///
/// The first buffer of the bank's key pair and of the oid pair is loaded
/// from `keys`/`oids` and padded; the second ones are resized (not
/// cleared — every pass fully overwrites its destination); the run list
/// and merge scratch feed the out-of-cache passes. All buffers grow
/// monotonically, so a warm caller allocates nothing.
///
/// # Safety
/// Caller must guarantee the kernel's instructions are supported by the
/// current CPU (trivially true for portable kernels).
#[inline(always)]
unsafe fn mergesort_generic<Kn: Kernel>(
    keys: &mut [Kn::K],
    oids: &mut [u32],
    cfg: &SortConfig,
    scratch: &mut SortScratch,
) {
    let n = keys.len();
    let l = Kn::L;
    let block = l * l;
    let (ka, kb) = <Kn::K>::bufs(&mut scratch.keys);
    let (oa, ob) = &mut scratch.oids;
    let (ca, cb) = &mut scratch.codes;
    let (runs_buf, merge) = (&mut scratch.runs, &mut scratch.merge);

    // Pad to a whole number of in-register blocks with MAX_KEY sentinels.
    // The kernel passes infer sizes from slice lengths, so every buffer
    // is resized to exactly `padded` (shrinking keeps capacity).
    let padded = n.div_ceil(block) * block;
    ka.clear();
    ka.reserve(padded);
    ka.extend_from_slice(keys);
    ka.resize(padded, Kn::K::MAX_KEY);
    oa.clear();
    oa.reserve(padded);
    oa.extend_from_slice(oids);
    oa.resize(padded, u32::MAX);
    kb.resize(padded, Kn::K::default());
    ob.resize(padded, 0u32);

    // Phase (a): in-register sorting -> runs of L.
    let t0 = Instant::now();
    phase1_block_sort::<Kn>(ka, oa);
    let t1 = Instant::now();

    // Every pass from here on reads `src` and writes `dst`, then the two
    // trade places.
    let mut src = (ka, oa, ca);
    let mut dst = (kb, ob, cb);

    // Phase (b): binary SIMD bitonic merging while runs fit in cache.
    let in_cache_run = cfg.in_cache_run::<Kn::K>(l);
    let mut run = l;
    while run < padded && run < in_cache_run {
        // Cancellation: each binary pass is one cache-resident stream over
        // the buffer, so a per-pass poll bounds latency to one pass.
        if cfg.cancel.check().is_err() {
            return;
        }
        merge_pass::<Kn>(src.0, src.1, dst.0, dst.1, run);
        core::mem::swap(&mut src, &mut dst);
        run *= 2;
    }

    // Phase (c): F-way out-of-cache loser-tree merge passes with
    // offset-value codes riding along.
    let t2 = Instant::now();
    if run < padded {
        // Derive the initial codes in one linear pass over the phase-(b)
        // output; later passes produce their output codes as they merge.
        src.2.resize(padded, 0);
        dst.2.resize(padded, 0);
        ovc::derive_codes(src.0, run, src.2);
    }
    let cancel = &cfg.cancel;
    while run < padded {
        run = multiway_pass(
            (src.0, src.1, Some(&src.2[..])),
            (dst.0, dst.1, Some(&mut dst.2[..])),
            run,
            cfg.fanout,
            runs_buf,
            merge,
            cancel,
        );
        core::mem::swap(&mut src, &mut dst);
        // A fired token may have truncated the pass above, leaving the
        // destination buffer partially written; bail before touching it.
        if cancel.check().is_err() {
            return;
        }
    }
    phase::record_marks(t0, t1, t2, Instant::now());

    // Final poll before the compaction asserts and the copy-back: a pass
    // cut short by cancellation must never publish garbage into
    // `keys`/`oids` (or trip `compact_padding`'s invariants on it).
    if cfg.cancel.check().is_err() {
        return;
    }
    compact_padding(src.0, src.1, n);
    keys.copy_from_slice(&src.0[..n]);
    oids.copy_from_slice(&src.1[..n]);
}

/// [`mergesort_generic`] compiled with AVX2 enabled, so the kernel's
/// intrinsics inline into the phase loops.
///
/// # Safety
/// The current CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mergesort_avx2<Kn: Kernel>(
    keys: &mut [Kn::K],
    oids: &mut [u32],
    cfg: &SortConfig,
    scratch: &mut SortScratch,
) {
    mergesort_generic::<Kn>(keys, oids, cfg, scratch)
}

/// Move padding sentinels to the very end of the sorted buffer.
///
/// Real keys equal to `K::MAX_KEY` tie with padding entries, so after the
/// sort the maximal-key region may interleave both. Within that region
/// (identical keys, so any order is valid) real entries are compacted to
/// the front. Requires that real oids are `< u32::MAX`.
fn compact_padding<K: Key>(keys: &mut [K], oids: &mut [u32], n: usize) {
    let padded = keys.len();
    if padded == n {
        return;
    }
    let start = keys.partition_point(|&k| k < K::MAX_KEY);
    debug_assert!(padded - start >= padded - n);
    let mut write = start;
    for read in start..padded {
        if oids[read] != u32::MAX {
            oids.swap(write, read);
            write += 1;
        }
    }
    debug_assert_eq!(write, n);
    // Keys in [start..padded) are all MAX_KEY already; only oids moved.
}

/// Key types that have the full set of sort kernels.
pub trait SortableKey: Key {
    /// Sort `(keys, oids)` ascending by key with the configured kernel,
    /// drawing all working memory from `scratch` ([`SortScratch`]);
    /// allocation-free once warm. oid values must be `< u32::MAX`.
    ///
    /// This is the one place a kernel is chosen: serial rounds, morsel
    /// spans and chunks, and spilled chunks all sort through it.
    fn sort_pairs_with_scratch(
        keys: &mut [Self],
        oids: &mut [u32],
        cfg: &SortConfig,
        scratch: &mut SortScratch,
    );
}

macro_rules! impl_sortable {
    ($k:ty, $portable:ty, $avx:ty) => {
        impl SortableKey for $k {
            fn sort_pairs_with_scratch(
                keys: &mut [Self],
                oids: &mut [u32],
                cfg: &SortConfig,
                scratch: &mut SortScratch,
            ) {
                assert_eq!(keys.len(), oids.len(), "keys/oids length mismatch");
                // Both families insertion-sort their smallest inputs, through
                // this one call site, so they do it at the same speed.
                let kernel = kernel_for(keys.len());
                let insertion = match cfg.kernel {
                    SortKernel::Auto => kernel == SizeKernel::Insertion,
                    SortKernel::MergeSort => keys.len() <= MERGE_SORT_INSERTION_MAX_ROWS,
                };
                if insertion {
                    return scalar::insertion_sort_pairs(keys, oids);
                }
                if cfg.kernel == SortKernel::Auto {
                    return if kernel == SizeKernel::Packed {
                        scalar::sort_pairs_packed(keys, oids, scratch)
                    } else {
                        radix::radix_sort_pairs(keys, oids, scratch, &cfg.cancel)
                    };
                }
                debug_assert!(oids.iter().all(|&o| o != u32::MAX));
                #[cfg(target_arch = "x86_64")]
                if !cfg.force_portable && avx2_available() {
                    // SAFETY: AVX2 presence checked above.
                    unsafe { mergesort_avx2::<$avx>(keys, oids, cfg, scratch) };
                    return;
                }
                // SAFETY: portable kernel has no ISA requirements.
                unsafe { mergesort_generic::<$portable>(keys, oids, cfg, scratch) }
            }
        }
    };
}

impl_sortable!(u16, crate::portable::P16, crate::avx2::A16);
impl_sortable!(u32, crate::portable::P32, crate::avx2::A32);
impl_sortable!(u64, crate::portable::P64, crate::avx2::A64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_pairs_with;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn check_sorted_permutation<K: SortableKey>(orig_keys: &[K], keys: &[K], oids: &[u32]) {
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
        // Every output position points back at its original key.
        for (i, &o) in oids.iter().enumerate() {
            assert_eq!(
                keys[i], orig_keys[o as usize],
                "oid {o} at position {i} mismatches"
            );
        }
        // oids form a permutation.
        let mut seen = vec![false; oids.len()];
        for &o in oids {
            assert!(!seen[o as usize], "duplicate oid {o}");
            seen[o as usize] = true;
        }
    }

    fn roundtrip<K: SortableKey>(n: usize, mask: u64, cfg: &SortConfig, seed: u64) {
        let mut state = seed;
        let orig: Vec<K> = (0..n)
            .map(|_| K::from_u64(xorshift(&mut state) & mask))
            .collect();
        let mut keys = orig.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        sort_pairs_with(&mut keys, &mut oids, cfg);
        check_sorted_permutation(&orig, &keys, &oids);
    }

    fn merge_sort() -> SortConfig {
        SortConfig {
            kernel: SortKernel::MergeSort,
            ..SortConfig::default()
        }
    }

    fn both_kernels() -> [SortConfig; 2] {
        [SortConfig::default(), merge_sort()]
    }

    #[test]
    fn kernel_for_steps_at_the_two_crossovers() {
        assert_eq!(SortConfig::default().kernel, SortKernel::Auto);
        assert_eq!(kernel_for(0), SizeKernel::Insertion);
        assert_eq!(kernel_for(INSERTION_MAX_ROWS), SizeKernel::Insertion);
        assert_eq!(kernel_for(INSERTION_MAX_ROWS + 1), SizeKernel::Packed);
        assert_eq!(kernel_for(PACKED_MAX_ROWS), SizeKernel::Packed);
        assert_eq!(kernel_for(PACKED_MAX_ROWS + 1), SizeKernel::Radix);
        assert_eq!(kernel_for(usize::MAX), SizeKernel::Radix);
    }

    #[test]
    fn sort_u32_sizes() {
        for cfg in both_kernels() {
            for n in [
                0usize, 1, 2, 63, 64, 65, 192, 193, 256, 1000, 4096, 10_000, 100_000,
            ] {
                roundtrip::<u32>(n, u64::MAX, &cfg, 42 + n as u64);
            }
        }
    }

    #[test]
    fn sort_u16_sizes() {
        for cfg in both_kernels() {
            for n in [0usize, 255, 256, 257, 5000, 70_000] {
                roundtrip::<u16>(n, u64::MAX, &cfg, 7 + n as u64);
            }
        }
    }

    #[test]
    fn sort_u64_sizes() {
        for cfg in both_kernels() {
            for n in [0usize, 15, 16, 17, 1000, 50_000] {
                roundtrip::<u64>(n, u64::MAX, &cfg, 99 + n as u64);
            }
        }
    }

    #[test]
    fn sort_with_heavy_ties() {
        for cfg in both_kernels() {
            roundtrip::<u32>(20_000, 0x7, &cfg, 1);
            roundtrip::<u16>(20_000, 0x3, &cfg, 2);
            roundtrip::<u64>(20_000, 0x1, &cfg, 3);
        }
    }

    #[test]
    fn sort_with_max_keys_present() {
        // Many real MAX keys exercise the merge-sort's padding-compaction
        // path (and must be nothing special to the other kernels).
        for cfg in both_kernels() {
            let n = 5000;
            let orig: Vec<u16> = (0..n)
                .map(|i| if i % 3 == 0 { u16::MAX } else { i as u16 })
                .collect();
            let mut keys = orig.clone();
            let mut oids: Vec<u32> = (0..n as u32).collect();
            sort_pairs_with(&mut keys, &mut oids, &cfg);
            check_sorted_permutation(&orig, &keys, &oids);
        }
    }

    #[test]
    fn portable_matches_avx2() {
        let mut cfg = merge_sort();
        let n = 30_000;
        let mut state = 0xDEADBEEFu64;
        let orig: Vec<u32> = (0..n).map(|_| xorshift(&mut state) as u32).collect();

        let mut k1 = orig.clone();
        let mut o1: Vec<u32> = (0..n as u32).collect();
        cfg.force_portable = true;
        sort_pairs_with(&mut k1, &mut o1, &cfg);

        let mut k2 = orig.clone();
        let mut o2: Vec<u32> = (0..n as u32).collect();
        cfg.force_portable = false;
        sort_pairs_with(&mut k2, &mut o2, &cfg);

        assert_eq!(k1, k2);
        check_sorted_permutation(&orig, &k2, &o2);
    }

    #[test]
    fn small_fanout_and_tiny_cache_exercise_multiway() {
        let cfg = SortConfig {
            in_cache_bytes: 1024, // force out-of-cache merging early
            fanout: 3,
            ..merge_sort()
        };
        roundtrip::<u32>(50_000, u64::MAX, &cfg, 5);
        roundtrip::<u16>(50_000, u64::MAX, &cfg, 6);
        roundtrip::<u64>(50_000, u64::MAX, &cfg, 8);
    }

    #[test]
    fn scratch_reuse_matches_fresh_across_banks_and_sizes() {
        // One scratch carried across banks and shrinking/growing inputs
        // must produce outputs identical to the allocate-per-call path.
        for cfg in both_kernels() {
            scratch_reuse_matches_fresh(&cfg);
        }
    }

    fn scratch_reuse_matches_fresh(cfg: &SortConfig) {
        let mut scratch = SortScratch::new();
        let mut state = 0xABCDu64;
        for &n in &[10_000usize, 500, 25_000, 0, 7, 100] {
            macro_rules! check_bank {
                ($k:ty) => {{
                    let orig: Vec<$k> = (0..n)
                        .map(|_| <$k as Key>::from_u64(xorshift(&mut state)))
                        .collect();
                    let mut k1 = orig.clone();
                    let mut o1: Vec<u32> = (0..n as u32).collect();
                    sort_pairs_with(&mut k1, &mut o1, cfg);
                    let mut k2 = orig.clone();
                    let mut o2: Vec<u32> = (0..n as u32).collect();
                    <$k>::sort_pairs_with_scratch(&mut k2, &mut o2, cfg, &mut scratch);
                    assert_eq!(k1, k2);
                    assert_eq!(o1, o2);
                }};
            }
            check_bank!(u16);
            check_bank!(u32);
            check_bank!(u64);
        }
        assert!(scratch.bytes() > 0, "scratch grew to its high-water mark");
    }

    #[test]
    fn already_sorted_and_reversed() {
        for cfg in both_kernels() {
            already_sorted_and_reversed_under(&cfg);
        }
    }

    fn already_sorted_and_reversed_under(cfg: &SortConfig) {
        let n = 10_000usize;
        let orig: Vec<u32> = (0..n as u32).collect();
        let mut keys = orig.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        sort_pairs_with(&mut keys, &mut oids, cfg);
        check_sorted_permutation(&orig, &keys, &oids);

        let orig: Vec<u32> = (0..n as u32).rev().collect();
        let mut keys = orig.clone();
        let mut oids: Vec<u32> = (0..n as u32).collect();
        sort_pairs_with(&mut keys, &mut oids, cfg);
        check_sorted_permutation(&orig, &keys, &oids);
    }
}
