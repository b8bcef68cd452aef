//! `/proc` readers: process CPU time, peak resident set, CPU model.
//!
//! Each reader is a pure parser over the file's text plus a thin
//! wrapper that reads the file, so the parsers are unit-testable.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture this repo targets.
const USER_HZ: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in milliseconds.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// The value of a `Key:   <n> kB` line of `/proc/<pid>/status`, in MB
/// (10^6 bytes).
pub fn parse_status_kb_as_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    let kb: u64 = line
        .strip_prefix(':')?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb as f64 * 1024.0 / 1e6)
}

/// `(steal, total)` ticks of the aggregate `cpu` line of `/proc/stat`:
/// time the hypervisor ran something else while this VM wanted a CPU,
/// and all accounted time.
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find_map(|l| l.strip_prefix("cpu "))?;
    let ticks: Vec<u64> = line
        .split_ascii_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// CPU time this process (all threads) has consumed, in ms. Zero where
/// `/proc` is unavailable.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ms(&s))
        .unwrap_or(0.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far; the share of
/// a section's `total` delta that is `steal` tells how much of it the
/// host took away. Zeros where `/proc` is unavailable.
pub fn machine_steal_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal(&s))
        .unwrap_or((0, 0))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb_as_mb(&s, "VmHWM"))
        .unwrap_or(0.0)
}

/// CPU model string, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_time_survives_hostile_command_names() {
        let stat = "4242 (spi ne) (x)) R 1 4242 4242 0 -1 4194304 917 0 0 0 \
                    250 50 0 0 20 0 3 0 1234567 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_stat_cpu_ms("no paren here"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_lines_parse_to_megabytes() {
        let status = "Name:\tspine\nVmPeak:\t  20000 kB\nVmHWM:\t   12500 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb_as_mb(status, "VmHWM"), Some(12.8));
        assert_eq!(parse_status_kb_as_mb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb_as_mb("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn steal_is_the_eighth_field_of_the_aggregate_line() {
        let stat = "cpu  100 5 30 800 10 0 5 50 7 0\ncpu0 50 0 15 400 5 0 2 25 0 0\nintr 1\n";
        assert_eq!(parse_stat_steal(stat), Some((50, 1000)));
        assert_eq!(parse_stat_steal("cpu0 1 2 3\n"), None);
        assert_eq!(parse_stat_steal("cpu  1 2 x\n"), None);
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Fast CPU @ 3GHz\nprocessor\t: 1\n\
                    model name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Fast CPU @ 3GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
        assert!(!cpu_model().is_empty());
    }
}
