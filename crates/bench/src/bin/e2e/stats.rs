//! Order statistics, regression bounds, and process memory.

/// Whether a metric improves downwards (latency) or upwards (rate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `values`, reported only when at
/// least ten samples lie beyond it — a p90 needs 100 samples, a p99
/// 1000. Below that the tail is too thin to be repeatable.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    // The epsilon keeps q·n = 990 from rounding up to rank 991.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// First quartile, median and third quartile by the "exclusive" rule of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match the ones an external checker computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The outcome of comparing a candidate's runs against a baseline's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `cand` is than `base`, as a share of `base` (negative
/// when better).
pub fn worse_by(better: Better, base: f64, cand: f64) -> f64 {
    if base == 0.0 {
        return if cand == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

/// Judges a candidate's runs against a baseline's under `bound` (a share
/// of the baseline median; `0` demands equality, for exact metrics).
/// When either side's spread exceeds the bound the verdict is
/// unresolved, unless every candidate run beats every baseline run.
pub fn judge(better: Better, bound: f64, base: &[f64], cand: &[f64]) -> Verdict {
    let (mb, mc) = (median(base), median(cand));
    if bound == 0.0 {
        return if base.iter().chain(cand).all(|&x| x == mb) {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    }
    let beats = |c: f64, b: f64| match better {
        Better::Lower => c < b,
        Better::Higher => c > b,
    };
    let all_better = cand.iter().all(|&c| base.iter().all(|&b| beats(c, b)));
    if spread(base).max(spread(cand)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if worse_by(better, mb, mc) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.9), None, "9 beyond p90");
        assert_eq!(tail_percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_rule() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 3.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn bounds_are_checked_per_direction() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [112.0, 113.0, 111.0, 112.0, 112.5];
        let faster = [88.0, 89.0, 87.0, 88.0, 88.5];
        // A latency 12% up is worse under a 10% bound; 12% down is fine.
        assert_eq!(judge(Better::Lower, 0.10, &base, &slower), Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.10, &base, &faster), Verdict::Ok);
        // A rate 12% down is worse; 12% up is fine.
        assert_eq!(judge(Better::Higher, 0.10, &base, &faster), Verdict::Worse);
        assert_eq!(judge(Better::Higher, 0.10, &base, &slower), Verdict::Ok);
        // Within the bound either way.
        let near = [105.0, 106.0, 104.0, 105.0, 105.5];
        assert_eq!(judge(Better::Lower, 0.10, &base, &near), Verdict::Ok);
        assert_eq!(judge(Better::Higher, 0.10, &base, &near), Verdict::Ok);
        assert!((worse_by(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 88.0) + 0.12).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let cand = [90.0, 130.0, 170.0, 110.0, 150.0];
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &cand),
            Verdict::Unresolved
        );
        let all_faster = [10.0, 11.0, 12.0, 13.0, 50.0];
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &all_faster), Verdict::Ok);
    }

    #[test]
    fn exact_bounds_demand_equality() {
        assert_eq!(judge(Better::Lower, 0.0, &[7.0, 7.0], &[7.0]), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.0, &[7.0, 7.0], &[6.0]),
            Verdict::Worse
        );
    }
}
