//! Seeded inputs: the random stream, the skewed popularity draw and the
//! `service` workload's spec pool.

use loopspec::dist::{JobSpec, Policy};
use loopspec::pipeline::Plan;

/// SplitMix64: small, seedable, and the same on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, forked by `stream` so that independent
    /// consumers of one seed never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipf-like popularity over ranks `0..n`: rank `r` is drawn with
/// weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// Four-lane grids the pool cycles through (policy axis × TU axis).
const LANE_MENU: [(&[Policy], &[u32]); 4] = [
    (&[Policy::Idle, Policy::Str], &[2, 4]),
    (&[Policy::Str, Policy::StrNested { limit: 3 }], &[4, 8]),
    (
        &[
            Policy::StrNested { limit: 1 },
            Policy::StrNested { limit: 2 },
        ],
        &[2, 16],
    ),
    (&[Policy::Idle, Policy::StrNested { limit: 3 }], &[8, 16]),
];

/// Instructions per `service` job: every pool program runs at least
/// this long, so the cut keeps the cost of a miss in a narrow band.
pub const JOB_FUEL: u64 = 100_000;

/// Shard size of a `service` job: three shards, two snapshot handoffs.
const JOB_SHARD: u64 = 34_000;

/// The `service` pool in popularity-rank order: SPEC95 programs and
/// `kern:` drivers, then the generated scenarios interleaved at the
/// unpopular end. `gen:<family>` entries get a seeded scenario seed;
/// the rest are fixed, so the cost of the mix barely depends on the
/// seed.
const POOL: [&str; 19] = [
    "go",
    "kern:ksum",
    "li",
    "swim",
    "kern:kdot",
    "applu",
    "tomcatv",
    "kern:kfill",
    "hydro2d",
    "apsi",
    "ijpeg",
    "kern:khash",
    "gen:trips",
    "turb3d",
    "gen:nest",
    "mgrid",
    "gen:dispatch",
    "fpppp",
    "gen:chase",
];

/// Number of distinct specs in the `service` pool.
pub const POOL_SIZE: usize = POOL.len();

/// The `service` pool for `seed`, in popularity-rank order.
pub fn service_pool(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 1);
    POOL.iter()
        .enumerate()
        .map(|(i, name)| {
            let workload = if name.starts_with("gen:") {
                format!("{name}:{}", rng.next_u64() % 1_000_000)
            } else {
                name.to_string()
            };
            let (policies, tus) = LANE_MENU[i % LANE_MENU.len()];
            JobSpec::new(workload)
                .policies(policies.iter().copied())
                .tus(tus.iter().copied())
                .total_fuel(JOB_FUEL)
                .plan(Plan::sliced(JOB_SHARD))
        })
        .collect()
}

/// Client `client`'s sequence of pool ranks for `seed`.
pub fn client_sequence(seed: u64, client: usize, len: usize, zipf: &Zipf) -> Vec<usize> {
    let mut rng = Rng::new(seed, 100 + client as u64);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let zipf = Zipf::new(POOL_SIZE, 0.5);
        assert_eq!(service_pool(7), service_pool(7));
        assert_eq!(
            client_sequence(7, 0, 50, &zipf),
            client_sequence(7, 0, 50, &zipf)
        );
        assert_ne!(
            client_sequence(7, 0, 50, &zipf),
            client_sequence(7, 1, 50, &zipf)
        );
        assert_ne!(service_pool(7), service_pool(8));
    }

    #[test]
    fn pool_specs_are_valid_and_distinct() {
        let pool = service_pool(3);
        let mut prints: Vec<u64> = pool.iter().map(|s| s.fingerprint()).collect();
        for spec in &pool {
            spec.validate().unwrap();
        }
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), POOL_SIZE);
    }

    #[test]
    fn popularity_is_skewed_towards_low_ranks() {
        let zipf = Zipf::new(POOL_SIZE, 0.5);
        let seq = client_sequence(1, 0, 20_000, &zipf);
        let top = seq.iter().filter(|&&r| r == 0).count();
        let bottom = seq.iter().filter(|&&r| r == POOL_SIZE - 1).count();
        assert!(top > 3 * bottom, "{top} vs {bottom}");
        assert!(seq.iter().all(|&r| r < POOL_SIZE));
    }
}
