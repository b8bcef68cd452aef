//! Order statistics over timing samples, and span self-time.

/// A percentile together with how far into the tail it may honestly
/// look: a tail percentile is reported only when at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
/// Empty input yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). Empty input yields 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of the candidate tail percentiles (99, 95, 90, 75) that
/// still has [`MIN_TAIL_SAMPLES`] samples beyond it at `n` samples;
/// the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
        .unwrap_or(50.0)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// One recorded span: `parent` indexes into the same slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.session_query`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The op (one replay of the workload's script) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (children may overlap each other
/// when they ran on different threads, so the union is taken).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe));
            children[p].push((a, b));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v[..1], 99.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: 10 lie beyond p90, only 1 beyond p99.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let s = |name, a, b, parent| Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            op: 0,
        };
        let spans = vec![
            s("op", 0, 100, None),
            s("a", 10, 40, Some(0)),
            // overlaps `a` by 10 (another thread): union is 10..60
            s("b", 30, 60, Some(0)),
            s("a.inner", 15, 20, Some(1)),
            // sticks out of its parent: clamped to 0..100
            s("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
    }
}
