//! Order statistics on raw samples. The program's own histograms have
//! power-of-two buckets (a percentile read from them is only within 2x of
//! the truth), so the benchmark keeps every sample and ranks them.

/// Nearest-rank `q`-quantile (`q` in `(0, 1]`) of an ascending slice: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The usual median: mean of the two middle samples when the count is even.
pub fn median(values: &[f64]) -> f64 {
    let s = sort(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them, which is what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sort(values.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median; 0 for a single sample.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: count how many samples are at or below each candidate.
    fn oracle(sorted: &[f64], q: f64) -> f64 {
        *sorted
            .iter()
            .find(|&&x| {
                let at_or_below = sorted.iter().filter(|&&y| y <= x).count();
                at_or_below as f64 >= q * sorted.len() as f64
            })
            .unwrap()
    }

    #[test]
    fn nearest_rank_matches_the_counting_oracle() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for n in [1usize, 2, 3, 10, 19, 20, 21, 100, 257] {
            let v: Vec<f64> = (0..n)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (seed >> 40) as f64
                })
                .collect();
            let s = sort(v);
            for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(nearest_rank(&s, q), oracle(&s, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn nearest_rank_known_values() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 10.0);
        assert_eq!(nearest_rank(&s, 0.95), 19.0);
        assert_eq!(nearest_rank(&s, 0.951), 20.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
