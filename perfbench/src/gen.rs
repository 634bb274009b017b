//! Seeded inputs: the random stream, the Zipfian pair picker, and the
//! key/value codecs. Every value the benchmark writes is a function of
//! the seed, the row and a per-row version, so a read can be checked
//! without storing the bytes that were written.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the run seed and a stream number, so each
    /// connection and leg draws independent but reproducible inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// YCSB's Zipfian generator over `0..n` (Gray et al.'s rejection-free
/// method). Rank 0 is the hottest item; callers scatter ranks over the
/// key space so hot rows are not clustered.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf { n, theta, alpha, zetan, eta }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

// ---------------------------------------------------------------------------
// Wide rows (`oltp_sync`, `cross_shard_2pc`): 11-byte keys, 100-byte values.
// ---------------------------------------------------------------------------

pub const WIDE_KEY_LEN: usize = 11;
pub const WIDE_VALUE_LEN: usize = 100;

pub fn wide_key(row: u32) -> [u8; WIDE_KEY_LEN] {
    let mut k = [0u8; WIDE_KEY_LEN];
    k[..3].copy_from_slice(b"usr");
    k[3..].copy_from_slice(&(row as u64).to_be_bytes());
    k
}

/// `[row u32][version u32][92 filler bytes keyed by seed, row, version]`.
pub fn wide_value(seed: u64, row: u32, version: u32) -> [u8; WIDE_VALUE_LEN] {
    let mut v = [0u8; WIDE_VALUE_LEN];
    v[..4].copy_from_slice(&row.to_le_bytes());
    v[4..8].copy_from_slice(&version.to_le_bytes());
    let mut s = seed ^ ((row as u64) << 32 | version as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    for chunk in v[8..].chunks_mut(8) {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        chunk.copy_from_slice(&mix(s).to_le_bytes()[..chunk.len()]);
    }
    v
}

/// The version a stored wide value carries, or `None` if the bytes are
/// not a value this benchmark could have written for `row`.
pub fn wide_version(seed: u64, row: u32, value: &[u8]) -> Option<u32> {
    if value.len() != WIDE_VALUE_LEN || value[..4] != row.to_le_bytes() {
        return None;
    }
    let version = u32::from_le_bytes(value[4..8].try_into().ok()?);
    (wide_value(seed, row, version)[..] == *value).then_some(version)
}

// ---------------------------------------------------------------------------
// Paired rows (`hybrid_ssn`, `replica_tail`): 8-byte keys and values; rows
// 2p and 2p+1 are always written together with the same value.
// ---------------------------------------------------------------------------

pub fn pair_key(row: u32) -> [u8; 8] {
    (row as u64).to_be_bytes()
}

pub fn pair_row(key: &[u8]) -> Option<u32> {
    let k: [u8; 8] = key.try_into().ok()?;
    u32::try_from(u64::from_be_bytes(k)).ok()
}

/// `version << 32 | pair`, big-endian.
pub fn pair_value(pair: u32, version: u32) -> [u8; 8] {
    ((version as u64) << 32 | pair as u64).to_be_bytes()
}

/// The version a stored pair value carries, or `None` if it does not
/// belong to `pair`.
pub fn pair_version(pair: u32, value: &[u8]) -> Option<u32> {
    let v = u64::from_be_bytes(value.try_into().ok()?);
    (v as u32 == pair).then_some((v >> 32) as u32)
}

/// Scatter Zipf rank `r` over `0..n` (a fixed odd multiplier is a
/// bijection modulo a power of two; ranks past `n` fold back by
/// rejection), so hot pairs land all over the table.
pub fn scatter(rank: u64, n: u64) -> u64 {
    let bits = 64 - (n.max(2) - 1).leading_zeros();
    let mask = (1u64 << bits) - 1;
    let mut x = rank;
    loop {
        x = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1).wrapping_add(0x632B_E59B_D9B4_E019)) & mask;
        if x < n {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn wide_values_round_trip_and_reject_foreign_bytes() {
        let v = wide_value(3, 42, 9);
        assert_eq!(wide_version(3, 42, &v), Some(9));
        assert_eq!(wide_version(3, 43, &v), None);
        assert_eq!(wide_version(4, 42, &v), None);
        let mut bad = v;
        bad[60] ^= 1;
        assert_eq!(wide_version(3, 42, &bad), None);
    }

    #[test]
    fn pair_values_round_trip() {
        assert_eq!(pair_version(5, &pair_value(5, 11)), Some(11));
        assert_eq!(pair_version(6, &pair_value(5, 11)), None);
        assert_eq!(pair_row(&pair_key(77)), Some(77));
    }

    #[test]
    fn scatter_is_a_bijection() {
        let n = 1000;
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let x = scatter(r, n) as usize;
            assert!(!seen[x]);
            seen[x] = true;
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Rng::new(1, 1);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hot > 2_000, "top 10 of 10k should draw >20% at theta 0.99, got {hot}");
    }
}
