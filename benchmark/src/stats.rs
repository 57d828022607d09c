//! Order statistics over per-op samples.

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Linear-interpolated quantile `q` ∈ [0, 1] of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The fewest samples [`tail`] accepts: the median has ten beyond it.
pub const MIN_TAIL_SAMPLES: usize = 20;

/// The tail of a latency sample: the highest percentile of [`TAIL_LADDER`]
/// that has at least ten samples beyond it. Panics on fewer than
/// [`MIN_TAIL_SAMPLES`] samples, which have no such percentile.
#[derive(Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let percentile = TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or_else(|| panic!("a tail needs {MIN_TAIL_SAMPLES} samples, got {n}"));
    Tail {
        percentile,
        value: quantile(&s, percentile / 100.0),
        beyond: (n as f64 * (1.0 - percentile / 100.0)).floor() as usize,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 99.0);
        assert!(t.beyond >= 10);
        let few: Vec<f64> = (0..MIN_TAIL_SAMPLES).map(|i| i as f64).collect();
        assert_eq!(tail(&few).percentile, 50.0);
        assert_eq!(tail(&few).beyond, 10);
    }
}
