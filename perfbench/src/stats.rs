//! Order statistics and the outcome digest hash.

/// Nearest-rank percentile (`q` in `0.0..=1.0`) of unsorted samples; 0 for
/// an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * q).round() as usize;
    v[rank]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Exact integer percentile, for the deterministic digest.
pub fn percentile_u64(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Whether a `q` percentile of `n` samples has at least ten samples
/// beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic non-repeating payload (xorshift64, eight bytes a step):
/// a uniform fill would deduplicate every chunk into one block.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile_u64(&[3, 1, 2], 0.5), 2);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
    }

    #[test]
    fn payload_is_seeded_and_sized() {
        assert_eq!(payload(1000, 7), payload(1000, 7));
        assert_ne!(payload(64, 7), payload(64, 8));
        assert_eq!(payload(13, 1).len(), 13);
    }
}
