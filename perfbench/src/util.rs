//! Small helpers shared by the workloads: the seeded generator, the Zipf
//! sampler, quantiles, payload hashing and the process's peak memory.

/// splitmix64: a tiny, well-mixed generator. The benchmark derives every
/// input from `--seed` through it, so one seed always gives one input set.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_11A7_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seed of an independent sub-stream (round `index` of a run, say).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf over `n` ranks with exponent `s`: rank `r` (0-based) has weight
/// `1 / (r + 1)^s`. Ranks map to items through a seeded permutation, so
/// which items are hot depends on the seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` distinct ranks (a batch never names one key twice, so the
    /// hit/miss make-up of a batch does not hinge on worker timing).
    pub fn distinct(&self, rng: &mut Rng, count: usize) -> Vec<usize> {
        assert!(count <= self.cdf.len(), "batch larger than the pool");
        let mut picked: Vec<usize> = Vec::with_capacity(count);
        while picked.len() < count {
            let r = self.sample(rng);
            if !picked.contains(&r) {
                picked.push(r);
            }
        }
        picked
    }
}

/// Quantile `q` in `[0, 1]` of `values` (linear interpolation between
/// order statistics). Sorts in place; NaN when there are no samples.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// 128-bit FNV-1a. A single changed byte always changes the hash, so
/// comparing hashes of equal-length payloads is a byte comparison.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Fingerprint of a payload: its length and FNV-1a hash.
pub type Fingerprint = (usize, u128);

pub fn fingerprint(payload: &str) -> Fingerprint {
    (payload.len(), fnv128(payload.as_bytes()))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_reproducible_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
    }

    #[test]
    fn zipf_favours_low_ranks_and_batches_are_distinct() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
        let batch = z.distinct(&mut rng, 32);
        let mut sorted = batch.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 4.6);
    }

    #[test]
    fn one_flipped_byte_changes_the_fingerprint() {
        let a = "{\"global\":[1,2,3]}";
        let mut b = a.as_bytes().to_vec();
        b[5] ^= 1;
        assert_ne!(
            fingerprint(a),
            fingerprint(std::str::from_utf8(&b).unwrap())
        );
    }
}
