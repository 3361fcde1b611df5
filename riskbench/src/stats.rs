//! Order statistics over timing samples.

use crate::json::Json;

/// Median of `samples` (mean of the middle pair for even counts).
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The five-number summary of one metric's samples, plus the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `samples`. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method) so a
    /// spread computed here matches the one the benchmark's driver
    /// computes; with fewer than two samples every field is the sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            let nan = f64::NAN;
            return Summary {
                n,
                min: nan,
                q1: nan,
                median: nan,
                q3: nan,
                max: nan,
            };
        }
        let cut = |i: usize| {
            if n < 2 {
                return sorted[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            n,
            min: sorted[0],
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            max: sorted[n - 1],
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0 or there are fewer than two samples).
    pub fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The summary as a JSON object carrying `unit`; `value` is the
    /// median.
    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::Num(self.median)),
            ("unit", Json::str(unit)),
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sample_counts() {
        assert!(median(&[]).is_nan());
        let one = Summary::of(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }
}
