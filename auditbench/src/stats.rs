//! Sample statistics: medians, interpolated percentiles, and which tail
//! percentile a sample is large enough to support.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`, interpolating
/// linearly between the two nearest ranks (rank `p/100 · (n − 1)`).
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile: p = {p}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples` (0 for an empty sample, so a layer that did no
/// work reports 0).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Tail percentiles considered, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Samples of `n` that lie strictly above the `p`-th percentile's lower
/// rank, i.e. beyond the value [`percentile`] interpolates.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * (n - 1) as f64 + 1e-9).floor() as usize;
    n - 1 - rank
}

/// The highest of p99.9 / p99 / p95 / p90 that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A timing sample summarised as its median and the highest tail
/// percentile the sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// `(p, value)` of the supported tail percentile, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            p50: median(samples),
            tail: supported_tail(samples.len()).map(|p| {
                (
                    p,
                    percentile(samples, p).expect("non-empty when a tail is supported"),
                )
            }),
        }
    }

    /// JSON form for the run metadata line.
    pub fn to_json(&self) -> serde_json::Value {
        let mut entries = vec![
            ("n".to_string(), serde_json::json!(self.n)),
            ("p50".to_string(), serde_json::json!(self.p50)),
        ];
        if let Some((p, v)) = self.tail {
            entries.push((format!("p{p}"), serde_json::json!(v)));
        }
        serde_json::Value::Object(entries)
    }
}
