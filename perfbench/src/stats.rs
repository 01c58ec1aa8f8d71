//! Order statistics over per-job samples.

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`. A tail percentile
/// (`p` above 50) is refused unless at least [`MIN_BEYOND`] samples lie
/// beyond its rank, so a p90 needs at least 100 samples.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(format!("percentile {p} outside 0..=100"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 50.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (an idle layer's ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 90.0).is_err(), "99 samples leave only 9 beyond p90");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert!(percentile(&hundred, 95.0).is_err(), "p95 of 100 has only 5 beyond it");
    }

    #[test]
    fn median_is_not_refused_on_few_samples() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(percentile(&[], 50.0).is_err());
    }
}
