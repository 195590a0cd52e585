//! Small sample statistics: nearest-rank percentiles over nanosecond
//! samples (delegating to [`mcds_obs::percentile`]), medians, and the
//! quartiles that judge run-to-run spread.

use std::time::Duration;

/// Durations collected in whole nanoseconds, sorted on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in milliseconds (0 for no samples).
    pub fn pct_ms(&self, pct: u32) -> f64 {
        self.pct_ns(pct) as f64 / 1e6
    }

    /// Nearest-rank percentile in microseconds (0 for no samples).
    pub fn pct_us(&self, pct: u32) -> f64 {
        self.pct_ns(pct) as f64 / 1e3
    }

    fn pct_ns(&self, pct: u32) -> u64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        mcds_obs::percentile(&sorted, pct)
    }

    /// Sum of all samples in seconds.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }
}

/// Median of `values` (mean of the middle pair for even counts), or
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile of `values` by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, or `None` for an empty
/// slice.  A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile distance as a share of the median (`None` when empty
/// or the median is 0).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_empty_single_and_tied_samples() {
        let empty = Samples::default();
        assert_eq!(empty.pct_ms(50), 0.0);
        assert_eq!(empty.pct_us(99), 0.0);

        let mut one = Samples::default();
        one.push(Duration::from_micros(1500));
        assert_eq!(one.pct_ms(50), 1.5);
        assert_eq!(one.pct_ms(90), 1.5);
        assert_eq!(one.pct_us(99), 1500.0);

        let mut tied = Samples::default();
        for _ in 0..10 {
            tied.push(Duration::from_millis(2));
        }
        assert_eq!(tied.pct_ms(50), 2.0);
        assert_eq!(tied.pct_ms(99), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank_regardless_of_push_order() {
        let mut s = Samples::default();
        for ms in (1..=100).rev() {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.pct_ms(50), 50.0);
        assert_eq!(s.pct_ms(90), 90.0);
        assert_eq!(s.pct_ms(95), 95.0);
        assert_eq!(s.len(), 100);
        assert!((s.total_s() - 5.05).abs() < 1e-9);
    }

    #[test]
    fn median_of_empty_single_tied_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[2.0, 2.0, 2.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[5.0; 6]), Some((5.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[4.0; 5]), Some(0.0));
        assert_eq!(spread(&[]), None);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }
}
