//! Order statistics, process memory, and the benchmark's own FNV-1a64.

/// The median (mean of the two middle values for an even count); `0.0`
/// for no samples. Sorts `xs` in place.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Each op's fastest time over the rounds that performed it: op `i` is
/// the `i`-th of every round.
pub fn best_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for round in rounds {
        for (i, &t) in round.iter().enumerate() {
            match best.get_mut(i) {
                Some(b) => *b = b.min(t),
                None => best.push(t),
            }
        }
    }
    best
}

/// The highest percentile that still has at least ten samples beyond it
/// (the sorted value at rank `n - 11`); with fewer than forty samples
/// there is no tail, and the median stands in. Sorts `xs` in place.
pub fn tail(xs: &mut [f64]) -> f64 {
    if xs.len() < 40 {
        return median(xs);
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() - 11]
}

/// Reads one `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`.
pub fn status_kb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident memory of this process, MB.
pub fn own_peak_rss_mb() -> f64 {
    status_kb("self", "VmHWM").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a 64 — written here independently of the program's hasher, so
/// a served `payload_fnv` is checked against a second implementation.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut xs), 90.0, "ten samples lie above the 90th value");
        assert_eq!(
            tail(&mut [5.0, 1.0, 3.0]),
            3.0,
            "no tail under forty samples"
        );
    }

    #[test]
    fn best_of_rounds_takes_each_ops_fastest_repeat() {
        let rounds = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0], vec![9.0, 0.5]];
        assert_eq!(best_of_rounds(&rounds), [2.0, 0.5, 5.0]);
        assert!(best_of_rounds(&[]).is_empty());
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn own_status_is_readable() {
        assert!(own_peak_rss_mb() > 0.0);
    }
}
