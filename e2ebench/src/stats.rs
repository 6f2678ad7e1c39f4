//! Order statistics over one sample set.
//!
//! Every percentile the benchmark prints comes from [`percentile`] over a
//! single sorted copy of the samples, so a higher quantile can never read
//! below a lower one.

/// The `q`-quantile (`0 < q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it.
/// Returns `None` for an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples` (nearest rank), `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The geometric mean of strictly positive `values`, `None` when empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_arrays() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
        assert_eq!(percentile(&ten, 0.9), Some(9.0));
        assert_eq!(percentile(&ten, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
    }

    #[test]
    fn p90_never_below_p50() {
        // Skewed and bimodal sets, where mixed estimators used to cross.
        let sets: [&[f64]; 4] = [
            &[1.62, 1.59, 1.60, 1.61, 1.58, 9.0, 1.57],
            &[10.0, 10.0, 10.0, 30.0, 30.0, 30.0],
            &[5.0; 9],
            &[0.1, 100.0],
        ];
        for s in sets {
            let p50 = median(s).expect("non-empty");
            let p90 = percentile(s, 0.9).expect("non-empty");
            assert!(p90 >= p50, "p90 {p90} < p50 {p50} on {s:?}");
        }
    }

    #[test]
    fn geomean_of_known_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).expect("non-empty");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
