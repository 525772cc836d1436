//! A fixed reference computation that calibrates host speed.
//!
//! The reference host's speed drifts by up to 2× over minutes as other
//! tenants load its memory system, and every round of a CPU-bound
//! workload drifts with it. This computation — the benchmark's own code,
//! so no change to the program can move it — is timed right before each
//! round on as many threads as the round uses. It is memory-bound and
//! about twice as sensitive to the drift as the workloads: over runs in
//! a noisy phase, log(round time) followed 0.46–0.52 × log(yardstick
//! time). [`calibrate`] therefore scales a round by the square root of
//! [`REFERENCE_S`] / yardstick time.

use std::time::Instant;

/// Host seconds one yardstick takes on the reference host in a quiet
/// phase; calibrated times are expressed in these units.
pub const REFERENCE_S: f64 = 0.1;

/// Steps per thread: dependent, data-driven loads and branches over a
/// 4 MiB table, like an interpreter walking a simulated machine.
const STEPS: usize = 1_000_000;

/// Table words per thread (4 MiB).
const WORDS: usize = 1 << 19;

/// One table per thread, allocated once so that page faults stay out of
/// the timed work.
#[derive(Debug)]
pub struct Yardstick {
    tables: Vec<Vec<u64>>,
}

/// The per-thread kernel: `STEPS` dependent steps; returns a checksum so
/// the work cannot be elided.
fn walk(seed: u64, table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc, mut i) = (seed | 1, 0u64, 0usize);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[i];
        acc = if v & 1 == 0 {
            acc.wrapping_add(v ^ x)
        } else {
            acc.rotate_left(5) ^ v
        };
        table[i] = v.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(x);
        i = (v ^ x) as usize & mask;
    }
    acc
}

impl Yardstick {
    /// A yardstick running on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Yardstick {
            tables: (0..threads.max(1))
                .map(|t| {
                    (0..WORDS as u64)
                        .map(|w| w.wrapping_mul(0x9E37_79B9) ^ t as u64)
                        .collect()
                })
                .collect(),
        }
    }

    /// Resident size of the tables in MiB, to take out of the process's
    /// peak resident set.
    pub fn resident_mb(&self) -> f64 {
        self.tables.iter().map(|t| t.len() * 8).sum::<usize>() as f64 / (1 << 20) as f64
    }

    /// Runs the computation once on every thread; returns host seconds.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (t, table) in self.tables.iter_mut().enumerate() {
                s.spawn(move || std::hint::black_box(walk(t as u64 + 1, table)));
            }
        });
        start.elapsed().as_secs_f64()
    }
}

/// `raw` host seconds expressed in reference-host seconds, given the
/// yardstick time measured next to it.
pub fn calibrate(raw: f64, yardstick: f64) -> f64 {
    raw * (REFERENCE_S / yardstick).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_yardstick() {
        assert_eq!(calibrate(2.0, REFERENCE_S), 2.0);
        // A phase that slows the yardstick 4× slows the rounds 2×.
        assert_eq!(calibrate(4.0, 4.0 * REFERENCE_S), 2.0);
    }

    #[test]
    fn the_walk_is_deterministic() {
        let mut a = vec![3u64; 1024];
        let mut b = vec![3u64; 1024];
        assert_eq!(walk(7, &mut a), walk(7, &mut b));
        assert_eq!(a, b);
        let mut y = Yardstick::new(2);
        assert!(y.measure() > 0.0);
    }
}
