//! The benchmark's aggregation rules: medians, quartiles, guarded
//! percentiles, and the sum of per-input medians behind `pass_ms`.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The first and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// `'exclusive'` method); `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let m = s.len() as i64 + 1;
    let cut = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, s.len() as i64 - 1);
        let delta = i * m - j * 4;
        (s[j as usize - 1] * (4 - delta) as f64 + s[j as usize] * delta as f64) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `pct`-th percentile of `xs` (linear interpolation between closest
/// ranks), reported only when at least ten samples lie beyond it — so the
/// 50th needs 20 samples and the 90th needs 100. Fewer samples give
/// `None`: a tail percentile of a handful of samples is one sample.
pub fn percentile(xs: &[f64], pct: u32) -> Option<f64> {
    assert!(pct < 100, "percentile must be below 100");
    let n = xs.len() as u64;
    if n * u64::from(100 - pct) < 10 * 100 {
        return None;
    }
    let s = sorted(xs);
    let pos = f64::from(pct) / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The sum, over inputs, of each input's median sample. Unlike a median
/// over every sample, it does not jump between inputs when their sample
/// counts shift by one.
pub fn sum_of_medians(by_input: &BTreeMap<String, Vec<f64>>) -> Option<f64> {
    if by_input.is_empty() || by_input.values().any(Vec::is_empty) {
        return None;
    }
    Some(by_input.values().filter_map(|v| median(v)).sum())
}

/// Geometric mean of positive values; `None` when empty or when any value
/// is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 50),
            None,
            "19 samples leave 9.5 beyond the median"
        );
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(9.5));
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 90),
            None,
            "99 samples leave 9.9 beyond the 90th"
        );
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&xs, 90).unwrap();
        assert!((p90 - 89.1).abs() < 1e-9, "got {p90}");
    }

    #[test]
    fn sum_of_medians_takes_each_inputs_median() {
        let mut by_input = BTreeMap::new();
        by_input.insert("a".to_string(), vec![10.0, 30.0, 20.0]);
        by_input.insert("b".to_string(), vec![1.0, 100.0]);
        assert_eq!(sum_of_medians(&by_input), Some(20.0 + 50.5));
        // A slow outlier in one input moves nothing: the median absorbs it.
        by_input.get_mut("a").unwrap().push(1e6);
        by_input.get_mut("a").unwrap().push(0.0);
        assert_eq!(sum_of_medians(&by_input), Some(20.0 + 50.5));
        by_input.insert("c".to_string(), vec![]);
        assert_eq!(sum_of_medians(&by_input), None, "an input without samples");
        assert_eq!(sum_of_medians(&BTreeMap::new()), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
