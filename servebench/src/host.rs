//! Host-speed probe.
//!
//! The benchmark host is a share of a larger machine, and its speed drifts
//! by a fifth over minutes. That drift moves every time a run measures in
//! the same direction, so runs of the same code minutes apart disagree by
//! more than any change worth gating. The untraced run therefore times a
//! fixed piece of the benchmark's own work ([`Probe::probe_us`]) between
//! its phases, while the service is idle, and scales each
//! time it reports by [`REFERENCE_PROBE_US`] over the median probe. The
//! probe runs no program code, so a change to the program moves the scaled
//! times exactly as much as the raw ones; the raw values and the probe are
//! printed beside them.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The median probe, in microseconds, on the host the bounds were set on
/// (two vCPUs of a shared x86-64 machine). Scaled times read as times on
/// that host at its usual speed.
pub const REFERENCE_PROBE_US: f64 = 1300.0;

/// Entries of the probe's table: 128 KiB of `u64`, inside a core's caches
/// like the graphs the service reads.
const TABLE: usize = 1 << 14;
/// Dependent loads through the table per probe.
const CHASE: usize = 80_000;
/// Keys inserted into and looked up in a hash map per probe.
const KEYS: usize = 4_000;
/// Rounds of integer mixing per probe.
const MIX: u64 = 200_000;
/// Small vectors allocated per probe.
const ALLOCS: u32 = 2_000;

/// The probe's fixed input, built once per run.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    /// Builds the probe's input. It is the same in every run.
    pub fn new() -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0b5e_55ed);
        let table = (0..TABLE).map(|_| rng.gen::<u64>()).collect();
        Self { table }
    }

    /// One probe's work: dependent loads through a cache-resident table,
    /// a hash map built and read back, integer mixing, and many small
    /// allocations, the kinds of work the service does per request. Of the
    /// candidates tried, this mix tracked the drift of the service's own
    /// times most closely.
    fn work(&self) -> u64 {
        let mask = TABLE as u64 - 1;
        let mut at = 0u64;
        for _ in 0..CHASE {
            at = self.table[(at & mask) as usize] ^ at.rotate_left(7);
        }
        let mut map = HashMap::with_capacity(KEYS);
        for (i, key) in self.table[..KEYS].iter().enumerate() {
            map.insert(*key, i as u64);
        }
        let found: u64 = self.table[..KEYS].iter().filter_map(|k| map.get(k)).sum();
        let mut mixed = 1u64;
        for i in 0..MIX {
            mixed = mixed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i)
                ^ (mixed >> 13);
        }
        let lists: Vec<Vec<u32>> = (0..ALLOCS).map(|i| (0..i % 64).collect()).collect();
        let listed = lists.iter().map(Vec::len).sum::<usize>() as u64;
        at ^ found ^ mixed ^ listed
    }

    /// Time of one probe on the calling thread, microseconds.
    pub fn probe_us(&self) -> f64 {
        // lint: allow(wall-clock, the benchmark times the host from outside)
        let start = Instant::now();
        black_box(self.work());
        start.elapsed().as_nanos() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let a = Probe::new();
        let b = Probe::new();
        assert_eq!(a.work(), b.work());
        assert!(a.probe_us() > 0.0);
    }
}
