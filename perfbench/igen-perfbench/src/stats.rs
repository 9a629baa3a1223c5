//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle values for even counts);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method). With
/// fewer than two samples both quartiles are the single value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A tail latency reported under the "at least ten samples beyond it"
/// rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99.0 when enough samples).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// The `want` percentile (nearest rank) when at least ten samples lie
/// beyond it; otherwise the highest percentile that still has ten
/// samples beyond it. `None` with ten or fewer samples.
pub fn tail(xs: &[f64], want: f64) -> Option<Tail> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest k with k / n >= want / 100.
    let rank = (want * n as f64 / 100.0).ceil() as usize;
    let rank = rank.clamp(1, n).min(n - 10);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: n - rank,
        n,
    })
}
