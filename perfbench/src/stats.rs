//! Order statistics, the calibration kernel and the peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile of `xs` (0 ≤ q ≤ 1), interpolating linearly between
/// order statistics; `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos - pos.floor());
    let next = v[(i + 1).min(v.len() - 1)];
    Some(v[i] + (next - v[i]) * frac)
}

/// The median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Milliseconds taken by a fixed CPU-bound kernel (xorshift over 2^24
/// steps). Timed beside every run, it shows how fast the host was at the
/// time, so drift between days can be told apart from a regression.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0u64;
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// This process's peak resident set in MiB (`VmHWM`), if the platform
/// reports it.
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
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert!((quantile(&xs, 0.9).unwrap() - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn calibration_runs_and_is_positive() {
        assert!(calibration_ms() > 0.0);
    }
}
