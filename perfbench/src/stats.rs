//! Order statistics the benchmark reports: median, quartiles, and the
//! tail percentile rule ("the highest percentile with at least ten
//! samples beyond it").

/// Percentiles the tail rule may choose from, highest last.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Value at percentile `p` (0..=100) of `xs`, by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).unwrap_or(0.0)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method, which
/// extrapolates for tiny samples). That is how run-to-run spread is
/// judged. `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    let q = |i: i64| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// A tail reading: which percentile, its value, and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen from [`TAIL_LADDER`].
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly past the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Samples ranked strictly above percentile `p` of `n` samples (the
/// rank [`percentile`] interpolates at is `p/100 · (n-1)`).
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * (n - 1) as f64).floor() as usize;
    n - 1 - rank
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. With fewer than `2 · TAIL_MIN_BEYOND` samples no
/// percentile qualifies and the median is reported instead; `beyond`
/// then says how thin it is. `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    Some(Tail {
        percentile: p,
        value: percentile(xs, p)?,
        beyond: beyond(n, p),
        samples: n,
    })
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&[0.0, 10.0], 25.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), Some((1.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        // p99 leaves 10 samples beyond; p99.9 would leave 1.
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);

        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 95.0);

        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 75.0);
    }

    #[test]
    fn thin_samples_fall_back_to_the_median() {
        let xs: Vec<f64> = (0..12).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.beyond, 6);
        assert_eq!(t.value, median(&xs));
        assert_eq!(tail(&[]), None);
    }
}
