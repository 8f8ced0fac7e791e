//! Percentiles, the sample-count rule, and the name grammar of `BENCHMARK.json`.

/// A p90 is reported only with at least this many samples, so that ten lie
/// beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// The `q`-quantile (`0.0..=1.0`) of `values`, interpolating linearly between
/// the two closest ranks; `None` for no samples.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The p90, or `None` when fewer than [`P90_MIN_SAMPLES`] samples back it.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < P90_MIN_SAMPLES {
        None
    } else {
        quantile(values, 0.9)
    }
}

#[cfg(test)]
/// A metric or workload name: a letter or digit, then up to 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[5.0, 1.0], 1.0), Some(5.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&ninety_nine), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = p90(&hundred).unwrap();
        assert!((p - 90.1).abs() < 1e-9, "{p}");
        assert_eq!(hundred.iter().filter(|&&v| v > p).count(), 10);
    }

    #[test]
    fn names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "chase_termination.adn-wa_ms",
            "9lives",
            "a.b-c_d",
        ] {
            assert!(is_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", long.as_str()] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "facts/s", "B"] {
            assert!(is_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_fact_x", "µs"] {
            assert!(!is_unit(bad), "{bad}");
        }
    }
}
