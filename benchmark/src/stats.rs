//! Timing summaries: a median, and the highest percentile that still has
//! enough samples beyond it to mean something.

/// A percentile is only reported when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, ascending.
pub const RUNGS: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest rung not above `cap` that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; p50 when none does.
///
/// `cap` is fixed per workload so that the reported percentile does not
/// flip between runs whose sample counts straddle a threshold.
pub fn tail_rung(n: usize, cap: u32) -> u32 {
    RUNGS
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= cap && n * (100 - p as usize) / 100 >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Nearest-rank quantile of an ascending slice (`p` in percent).
pub fn quantile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty series");
    let idx = ((sorted.len() - 1) as f64 * p as f64 / 100.0).round() as usize;
    sorted[idx]
}

/// Nearest-rank quantile of an unsorted series (`p` in percent).
pub fn quantile_of(samples: &[f64], p: u32) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, p)
}

/// Median of an unsorted series.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples, 50).p50
}

/// What is reported for every timed series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised (after the warm-up sample was dropped).
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile `tail` was taken at.
    pub tail_pct: u32,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples`, with the tail taken at [`tail_rung`]`(n, cap)`.
    pub fn of(samples: &[f64], cap: u32) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_rung(sorted.len(), cap);
        Summary {
            n: sorted.len(),
            p50: quantile(&sorted, 50),
            tail_pct,
            tail: quantile(&sorted, tail_pct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_rung(1000, 99), 99);
        assert_eq!(tail_rung(999, 99), 95);
        assert_eq!(tail_rung(200, 99), 95);
        assert_eq!(tail_rung(199, 99), 90);
        assert_eq!(tail_rung(100, 99), 90);
        assert_eq!(tail_rung(99, 99), 75);
        assert_eq!(tail_rung(40, 99), 75);
        assert_eq!(tail_rung(39, 99), 50);
        assert_eq!(tail_rung(3, 99), 50);
    }

    #[test]
    fn tail_never_exceeds_the_cap() {
        assert_eq!(tail_rung(100_000, 90), 90);
        assert_eq!(tail_rung(100_000, 50), 50);
    }

    #[test]
    fn summary_reads_median_and_tail() {
        let v: Vec<f64> = (1..=1001).map(f64::from).collect();
        let s = Summary::of(&v, 99);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1001, 501.0, 99, 991.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile_of(&[5.0, 1.0, 3.0], 100), 5.0);
    }
}
