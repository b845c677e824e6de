//! Order statistics of timing samples.

/// The median (mean of the middle two for an even count); `None` when
/// empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// The tail: the highest percentile with at least ten samples beyond it,
/// as `(value, percentile, samples)`. The value is the eleventh largest
/// sample and its percentile is `100 (n − 10) / n`; `None` below eleven
/// samples.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let s = sorted(samples);
    let n = s.len();
    (n > 10).then(|| (s[n - 11], 100.0 * (n - 10) as f64 / n as f64, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v).expect("100 samples");
        assert_eq!((value, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!(tail(&v[..10]).is_none());
    }
}
