//! Summary statistics, metric naming and the result line.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles the tail helper chooses from, lowest first.
const TAIL_LADDER: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// The nearest-rank `p`-quantile of `sorted` (ascending, non-empty) and the
/// number of samples beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The nearest-rank `p`-quantile of `samples`, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it (so the figure is not one or two
/// outliers).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (value, beyond) = nearest_rank(&sorted, p);
    (beyond >= TAIL_SAMPLES).then_some(value)
}

/// The median of `samples` (the mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The highest tail percentile with at least [`TAIL_SAMPLES`] samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.9 = p90).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// The highest percentile of the ladder p90, p99, p99.9, p99.99 that has at
/// least [`TAIL_SAMPLES`] samples beyond it; `None` below 100 samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER
        .iter()
        .rev()
        .filter(|_| !sorted.is_empty())
        .map(|&p| (p, nearest_rank(&sorted, p)))
        .find(|(_, (_, beyond))| *beyond >= TAIL_SAMPLES)
        .map(|(percentile, (value, beyond))| Tail {
            percentile,
            value,
            beyond,
            samples: sorted.len(),
        })
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The last line of the benchmark's output: one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// Panics on an invalid metric name or unit, a repeated name, or a value
/// that is not finite — all bugs in the benchmark.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "invalid metric name `{}`", m.name);
        assert!(valid_unit(m.unit), "invalid unit `{}`", m.unit);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric `{}` reported twice",
            m.name
        );
        assert!(m.value.is_finite(), "metric `{}` is {}", m.name, m.value);
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(99)), None);
        let t = tail(&ramp(100)).expect("100 samples give a p90");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (0.9, 90.0, 10, 100)
        );
        let t = tail(&ramp(999)).expect("p90");
        assert_eq!(t.percentile, 0.9);
        let t = tail(&ramp(1000)).expect("1000 samples give a p99");
        assert_eq!((t.percentile, t.value, t.beyond), (0.99, 990.0, 10));
        let t = tail(&ramp(10_000)).expect("p99.9");
        assert_eq!((t.percentile, t.beyond), (0.999, 10));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut samples = ramp(200);
        samples.reverse();
        assert_eq!(tail(&samples).map(|t| t.value), Some(180.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "latency_p50_ms",
            "stage.timed.self_ms",
            "verify_sweep",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "semi;colon",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "cells/ff"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric {
                    name: "latency_p50_ms",
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: 0.5,
                    unit: "s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn result_line_rejects_duplicates() {
        let m = Metric {
            name: "x",
            value: 1.0,
            unit: "ms",
        };
        result_line(true, 1, 0, &[m.clone(), m]);
    }
}
