//! Small statistics over raw samples: nearest-rank percentiles,
//! geometric means and the process's peak resident set.

/// A percentile read from the raw sorted samples, with the counts that
/// say how far it can be trusted.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples it was read from.
    pub samples: usize,
    /// Samples strictly above its rank. A tail percentile is supported
    /// only when at least ten lie beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank }
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&xs, 90.0);
        assert_eq!((p.value, p.samples, p.beyond), (90.0, 100, 10));
        assert_eq!(percentile(&xs, 50.0).value, 50.0);
        assert_eq!(percentile(&[3.0], 90.0).beyond, 0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
