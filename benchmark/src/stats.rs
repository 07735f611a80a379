//! The few statistics the benchmark reports.
//!
//! Noise on a small shared host is one-sided (preemption, a busy sibling
//! hyperthread and cold pages only ever add time), so host-time metrics
//! are estimated from the fast end of the readings; median and quartiles
//! of whole iterations are printed beside them so the spread stays visible.

/// The undisturbed duration of an iteration that is timed in segments:
/// per segment, the fastest reading across the iterations, summed over
/// the segments. Every iteration must have the same segments, each doing
/// the same work every time, so interference can only ever add to a
/// reading and the minimum is the reading nearest the undisturbed time.
/// One quiet reading per segment is enough, where the fastest *whole*
/// iterations need whole iterations to be quiet. `NaN` for no iterations.
pub fn fastest_sum(iterations: &[Vec<u64>]) -> f64 {
    let Some(first) = iterations.first() else {
        return f64::NAN;
    };
    assert!(
        iterations.iter().all(|it| it.len() == first.len()),
        "every iteration has the same segments"
    );
    (0..first.len())
        .map(|j| iterations.iter().map(|it| it[j]).min().unwrap_or(0) as f64)
        .sum()
}

/// Median; `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// `[p25, p50, p75]` as Python's `statistics.quantiles(samples, n=4)`
/// computes them (the "exclusive" method), because that is what the
/// pipeline's acceptance check calls. One sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// `(p75 − p25) / median`: the spread the pipeline holds against a
/// metric's bound. `0` when the median is `0`.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (nearest rank) of the samples; `NaN` for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    if data.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}
