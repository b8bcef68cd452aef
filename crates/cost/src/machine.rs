//! Hardware description used by the cost model (the paper's `M_LLC` and
//! `M_L2`; the merge fan-out `F` is the sorter's own
//! `SortConfig::fanout`).

use std::fs;

/// Architectural parameters of the machine the column-store runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Last-level cache capacity in bytes (`M_LLC`, Eq. 3).
    pub llc_bytes: usize,
    /// L2 cache capacity in bytes (`M_L2`, Eqs. 7–8).
    pub l2_bytes: usize,
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec {
            llc_bytes: 32 * 1024 * 1024,
            l2_bytes: 2 * 1024 * 1024,
        }
    }
}

impl MachineSpec {
    /// Detect cache sizes from `/sys` (Linux), falling back to defaults.
    ///
    /// Virtualized environments sometimes advertise enormous shared LLCs;
    /// `llc_bytes` is capped at 64 MiB so calibration working sets stay
    /// practical — the cap is applied consistently to both calibration and
    /// cost estimation, so plan rankings are unaffected.
    pub fn detect() -> MachineSpec {
        let mut spec = MachineSpec::default();
        let base = "/sys/devices/system/cpu/cpu0/cache";
        if let Ok(entries) = fs::read_dir(base) {
            for e in entries.flatten() {
                let p = e.path();
                let level: u32 = read_trim(&p.join("level"))
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let ty = read_trim(&p.join("type")).unwrap_or_default();
                let size = read_trim(&p.join("size")).and_then(|s| parse_size(&s));
                if let Some(bytes) = size {
                    match (level, ty.as_str()) {
                        (2, "Unified") => spec.l2_bytes = bytes,
                        (3, "Unified") | (4, "Unified") => spec.llc_bytes = bytes,
                        _ => {}
                    }
                }
            }
        }
        spec.llc_bytes = spec.llc_bytes.min(64 * 1024 * 1024);
        spec
    }

    /// The in-cache merged-run capacity in *codes* for bank width `b` bits:
    /// `0.5 · M_L2 / (b/8)` (Eq. 7 context). Our sort carries a 4-byte oid
    /// payload per code, which the per-element footprint includes.
    pub fn in_cache_run_codes(&self, bank_bits: u32) -> f64 {
        (0.5 * self.l2_bytes as f64) / (bank_bits as f64 / 8.0 + 4.0)
    }
}

fn read_trim(p: &std::path::Path) -> Option<String> {
    fs::read_to_string(p).ok().map(|s| s.trim().to_string())
}

/// Parse `"48K"` / `"2048K"` / `"32M"` / plain bytes.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    if let Some(v) = s.strip_suffix(['K', 'k']) {
        v.parse::<usize>().ok().map(|x| x * 1024)
    } else if let Some(v) = s.strip_suffix(['M', 'm']) {
        v.parse::<usize>().ok().map(|x| x * 1024 * 1024)
    } else if let Some(v) = s.strip_suffix(['G', 'g']) {
        v.parse::<usize>().ok().map(|x| x * 1024 * 1024 * 1024)
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_size("32M"), Some(32 * 1024 * 1024));
        assert_eq!(parse_size("123"), Some(123));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn detect_is_sane() {
        let m = MachineSpec::detect();
        assert!(m.l2_bytes >= 64 * 1024);
        assert!(m.llc_bytes >= m.l2_bytes);
        assert!(m.llc_bytes <= 64 * 1024 * 1024);
    }

    #[test]
    fn in_cache_run_shrinks_with_bank() {
        let m = MachineSpec::default();
        assert!(m.in_cache_run_codes(16) > m.in_cache_run_codes(32));
        assert!(m.in_cache_run_codes(32) > m.in_cache_run_codes(64));
    }
}
