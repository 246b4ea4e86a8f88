//! Order statistics used for reporting.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 below two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// Element-wise minimum across equally long rows: the noise floor. The
/// program is deterministic, so step `i` does identical work in every
/// pass and its fastest observation is the one least disturbed by the
/// host. `None` when rows disagree in length (a determinism failure).
pub fn floor(rows: &[Vec<u64>]) -> Option<Vec<u64>> {
    let first = rows.first()?;
    let mut out = first.clone();
    for row in &rows[1..] {
        if row.len() != out.len() {
            return None;
        }
        for (o, &x) in out.iter_mut().zip(row) {
            *o = (*o).min(x);
        }
    }
    Some(out)
}

/// The highest order statistic of `sorted` (ascending) that still has
/// `beyond` samples above it, with the percentile it stands for.
/// `None` when there are too few samples.
pub fn tail(sorted: &[u64], beyond: usize) -> Option<(u64, f64)> {
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let idx = n - 1 - beyond;
    Some((sorted[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
    }

    #[test]
    fn floor_is_elementwise_min() {
        assert_eq!(floor(&[vec![3, 9], vec![5, 2]]), Some(vec![3, 2]));
        assert_eq!(floor(&[vec![3, 9], vec![5]]), None);
    }

    #[test]
    fn tail_leaves_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v, 10), Some((90, 90.0)));
        assert_eq!(tail(&v[..10], 10), None);
    }
}
