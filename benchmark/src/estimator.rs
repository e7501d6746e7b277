//! The statistics every reported number goes through: median, the
//! "at least ten samples beyond it" tail percentile, and the geometric
//! mean that folds per-circuit rows into one workload metric.

/// Percentiles a tail row may report, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it (nearest-rank), with its value; `None` below the
/// sample count where even the lowest rung qualifies.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (p, s[rank - 1]))
    })
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean needs positive values, got {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One printed row: sample count, median, and the tail percentile when
/// the sample count supports one.
pub fn row(samples: &[f64], unit: &str) -> String {
    let tail = match tail(samples) {
        Some((p, v)) => format!("p{:<4} {v:>10.3}", p * 100.0),
        None => format!("{:<5} {:>10}", "p-", "n/a"),
    };
    format!(
        "median {:>10.3} {unit}  {tail} {unit}  n={}",
        median(samples),
        samples.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let upto = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // p75 of 39 samples is rank 30, leaving 9 beyond: not enough.
        assert_eq!(tail(&upto(39)), None);
        // 40 samples: rank 30, exactly 10 beyond.
        assert_eq!(tail(&upto(40)), Some((0.75, 30.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 would leave 5.
        assert_eq!(tail(&upto(100)), Some((0.9, 90.0)));
        assert_eq!(tail(&upto(200)), Some((0.95, 190.0)));
        assert_eq!(tail(&upto(1000)), Some((0.99, 990.0)));
        assert_eq!(tail(&upto(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn geometric_mean_weighs_ratios_not_differences() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
        // Doubling one of five circuits moves the mean by 2^(1/5).
        let base = geometric_mean(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let moved = geometric_mean(&[2.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((moved / base - 2f64.powf(0.2)).abs() < 1e-12);
    }
}
