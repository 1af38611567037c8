//! Order statistics over raw samples. The benchmark keeps every sample
//! (a run has at most a few hundred thousand), so percentiles are exact.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample so a skipped phase reads as absent.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    samples[below] + (samples[above] - samples[below]) * (rank - below as f64)
}

/// Interference on a shared host is one-sided and bursty: a noisy
/// neighbour only ever slows a stretch of the run, typically for a second
/// or so (a saturated run's 0.5 s windows ranged 414–676 replies/s within
/// one run while undisturbed runs sat at 690). So a run is cut into
/// consecutive windows, each window is summarised on its own, and the
/// figure reported is the **quiet quartile** across windows — the lower
/// quartile of a time, the upper quartile of a rate: a value the gateway
/// reached in at least a quarter of the run, which a burst cannot move
/// unless it covers three quarters of it.
pub const QUIET_TIME: f64 = 0.25;
pub const QUIET_RATE: f64 = 0.75;

/// The [`QUIET_TIME`] quartile, over consecutive windows of `samples`
/// (which are in time order), of each window's `q`-quantile. Windows hold
/// at least `min_per_window` samples and there are at most `max`.
pub fn windowed_percentile(samples: &[f64], q: f64, min_per_window: usize, max: usize) -> f64 {
    let windows = (samples.len() / min_per_window.max(1)).clamp(1, max.max(1));
    let mut per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let (from, to) = (
                w * samples.len() / windows,
                (w + 1) * samples.len() / windows,
            );
            percentile(&mut samples[from..to].to_vec(), q)
        })
        .collect();
    percentile(&mut per_window, QUIET_TIME)
}

/// Events per second as the [`QUIET_RATE`] quartile over consecutive
/// `window_s`-second windows of `[0, span_s)`; `arrivals` are offsets in
/// seconds.
pub fn windowed_rate(arrivals: &[f64], span_s: f64, window_s: f64) -> f64 {
    let windows = ((span_s / window_s).floor() as usize).max(1);
    let width = span_s / windows as f64;
    let mut rates = vec![0.0; windows];
    for &at in arrivals {
        if (0.0..span_s).contains(&at) {
            rates[((at / width) as usize).min(windows - 1)] += 1.0 / width;
        }
    }
    percentile(&mut rates, QUIET_RATE)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 0.9), 7.0);
        let mut v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        assert!((percentile(&mut v, 0.9) - 4.6).abs() < 1e-12);
        let mut even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&mut even, 0.5), 2.5);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn windowed_percentile_steps_over_a_burst() {
        // Ten windows of 40; three of them are all outliers.
        let mut samples: Vec<f64> = (0..400).map(|i| 1.0 + f64::from(i % 40) / 40.0).collect();
        for s in &mut samples[120..240] {
            *s += 100.0;
        }
        let quiet = windowed_percentile(&samples, 0.9, 40, 10);
        assert!((1.8..2.0).contains(&quiet), "{quiet}");
        assert!(percentile(&mut samples.clone(), 0.9) > 100.0);
        // Too few samples for two windows: the plain percentile.
        let few = [3.0, 1.0, 2.0];
        assert_eq!(windowed_percentile(&few, 0.5, 40, 10), 2.0);
        assert_eq!(windowed_percentile(&[], 0.5, 40, 10), 0.0);
    }

    #[test]
    fn windowed_rate_is_the_quiet_quartile_of_windows() {
        // 100/s for eight seconds, except that seconds 2..5 run at half speed.
        let arrivals: Vec<f64> = (0..800)
            .filter(|i| !(200..500).contains(i) || i % 2 == 0)
            .map(|i| f64::from(i) / 100.0)
            .collect();
        assert!((windowed_rate(&arrivals, 8.0, 1.0) - 100.0).abs() < 1e-9);
        // One window over the whole span is the plain mean rate.
        assert!((windowed_rate(&arrivals, 8.0, 8.0) - 81.25).abs() < 1e-9);
        // A span shorter than one window is one window.
        assert!((windowed_rate(&[0.1, 0.2], 0.25, 0.5) - 8.0).abs() < 1e-9);
        assert_eq!(windowed_rate(&[], 1.0, 0.5), 0.0);
    }

    #[test]
    fn mean_and_ratio_are_zero_on_nothing() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
