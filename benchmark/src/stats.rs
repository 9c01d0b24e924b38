//! Order statistics over samples.

/// Sorts `v` and returns its median (0 for an empty sample).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// Median of nanosecond samples, as f64 nanoseconds.
pub fn median_ns(v: &[u32]) -> f64 {
    percentile_ns(v, 0.5)
}

/// The `p` quantile of nanosecond samples (copies and sorts).
pub fn percentile_ns(v: &[u32], p: f64) -> f64 {
    let mut s: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    s.sort_by(f64::total_cmp);
    percentile(&s, p)
}

/// The `p` quantile of an already sorted sample, linearly interpolated.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// `compare` reports the spread the driver will see.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Harmonic mean (the paper's Fig. 4 summary statistic).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}
