//! Statistics and table-formatting helpers for the experiment binaries.

/// Percentile of a sample (nearest-rank on a sorted copy). `p` in the range 0 to 100.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Evaluates the empirical CDF at `n` evenly spaced quantiles, returning
/// `(value, cumulative_fraction)` pairs — the series behind every CDF
/// figure in the paper.
pub fn cdf_points(samples: &[f64], n: usize) -> Vec<(f64, f64)> {
    if samples.is_empty() || n == 0 {
        return Vec::new();
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (1..=n)
        .map(|i| {
            let q = i as f64 / n as f64;
            let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
            (v[rank], q)
        })
        .collect()
}

/// Fraction of samples strictly below `threshold`.
pub fn fraction_below(samples: &[f64], threshold: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().filter(|&&x| x < threshold).count() as f64 / samples.len() as f64
}

/// Pearson correlation coefficient of two equal-length samples.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Five-number-ish summary used in report rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes the summary of `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        let mean = if n == 0 { f64::NAN } else { samples.iter().sum::<f64>() / n as f64 };
        Summary {
            n,
            mean,
            p50: percentile(samples, 50.0),
            p90: percentile(samples, 90.0),
            p95: percentile(samples, 95.0),
            p99: percentile(samples, 99.0),
        }
    }
}

/// Ranks rows by count, largest first, breaking ties by key, smallest
/// first. `count_key` maps a row to its `(count, key)`. Rows gathered
/// from a `HashMap` arrive in hash order; without the key tie-break,
/// tied rows (and any top-N cut through them) would differ run to run.
pub fn rank_by_count<T, N: Ord, K: Ord>(rows: &mut [T], count_key: impl Fn(&T) -> (N, K)) {
    rows.sort_by(|a, b| {
        let ((na, ka), (nb, kb)) = (count_key(a), count_key(b));
        nb.cmp(&na).then(ka.cmp(&kb))
    });
}

/// Renders a markdown table: a header row plus data rows.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Renders a compact ASCII CDF/series plot (values vs. fraction), handy
/// for eyeballing figure shapes straight from the terminal.
pub fn ascii_series(title: &str, points: &[(f64, f64)], width: usize) -> String {
    let mut out = format!("{title}\n");
    if points.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let max_x = points.iter().map(|(x, _)| *x).fold(f64::MIN, f64::max);
    for (x, y) in points {
        let bar = ((x / max_x) * width as f64).round() as usize;
        out.push_str(&format!(
            "  {:>7.3} | {:>5.1}% {}\n",
            x,
            y * 100.0,
            "#".repeat(bar.min(width))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_by_count_breaks_ties_by_key() {
        let expected = vec![("b", 5), ("a", 3), ("c", 3), ("d", 3), ("e", 1)];
        // Every rotation of the input ranks the same way.
        for shift in 0..expected.len() {
            let mut rows = expected.clone();
            rows.rotate_left(shift);
            rank_by_count(&mut rows, |&(k, n)| (n, k));
            assert_eq!(rows, expected, "rotation {shift}");
        }
        // Rows wider than a pair pick their count and key.
        let mut ases = vec![(7u32, 2u32, 10u64), (3, 9, 10), (5, 1, 40)];
        rank_by_count(&mut ases, |&(asn, _, n)| (n, asn));
        assert_eq!(ases, vec![(5, 1, 40), (3, 9, 10), (7, 2, 10)]);
    }

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.0).abs() <= 1.0);
        assert!((percentile(&v, 90.0) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
    }

    #[test]
    fn percentile_empty_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn cdf_points_monotone() {
        let v = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let pts = cdf_points(&v, 10);
        assert_eq!(pts.len(), 10);
        for pair in pts.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(pts.last().unwrap().0, 9.0);
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_works() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_below(&v, 2.5), 0.5);
        assert_eq!(fraction_below(&v, 0.0), 0.0);
        assert_eq!(fraction_below(&v, 10.0), 1.0);
    }

    #[test]
    fn pearson_known_values() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y = vec![2.0, 4.0, 6.0, 8.0, 10.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let y_neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
        let flat = vec![1.0; 5];
        assert_eq!(pearson(&x, &flat), 0.0);
    }

    #[test]
    fn summary_of_uniform() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert!((s.mean - 499.5).abs() < 1e-9);
        assert!((s.p50 - 500.0).abs() <= 1.0);
        assert!((s.p95 - 949.0).abs() <= 2.0);
    }

    #[test]
    fn markdown_table_renders() {
        let t = markdown_table(
            &["Region", "p50"],
            &[vec!["eu".into(), "1.81".into()], vec!["af".into(), "3.75".into()]],
        );
        assert!(t.contains("| Region | p50 |"));
        assert!(t.contains("| eu | 1.81 |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn ascii_series_handles_empty() {
        assert!(ascii_series("t", &[], 40).contains("no data"));
    }
}
