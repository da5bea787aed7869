//! Growth-exponent estimation for the scaling experiments.

/// Least-squares slope of `log(y)` against `log(x)` — the growth-exponent
/// estimator used to distinguish Θ(n) blow-ups from O(log n) growth in the
/// scaling experiments (a slope near 1 means linear, near 0 logarithmic-ish).
///
/// # Panics
/// Panics if fewer than two points or any coordinate is non-positive.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    assert!(
        points.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "log-log slope needs positive coordinates"
    );
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate x values");
    (n * sxy - sx * sy) / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_log_slope_detects_linear_growth() {
        let pts: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&pts) - 1.0).abs() < 1e-9, "y=3x has slope 1");
    }

    #[test]
    fn log_log_slope_detects_quadratic_growth() {
        let pts: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn log_log_slope_near_zero_for_logarithmic() {
        let pts: Vec<(f64, f64)> = (4..=12)
            .map(|e| {
                let x = 2f64.powi(e);
                (x, x.ln())
            })
            .collect();
        assert!(
            log_log_slope(&pts) < 0.35,
            "log growth has small slope at scale"
        );
    }
}
