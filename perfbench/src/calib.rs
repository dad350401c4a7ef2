//! Host-speed reference for the simulator workloads' host-time metrics.
//!
//! The 2-vCPU host this benchmark was tuned on runs at two speeds that
//! switch within seconds: over one minute of back-to-back `sim-skeap-sync`
//! repetitions the rate sat near 100k ops/s for 16 s, then near 165k, and
//! flipped again several times, with no steal time and no frequency change
//! visible to the guest (a busy sibling hyperthread fits). A run's median
//! rate then depends on which speed its ten seconds fell into.
//!
//! So the benchmark times a fixed mix of its own — map churn and a sort,
//! no program code — before every set-up and between 200 ms slices of
//! every untraced drive, and scales each slice's host time by how slow the
//! mix ran around it against [`NOMINAL_SECS`]. A change to the program
//! moves the scaled figures exactly as it moves the raw ones; a change in
//! host speed moves both the slice and the mix. The unscaled medians are
//! printed as notes next to the metrics.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// The reference mix's time on an uncontended vCPU of the 2.1 GHz host
/// the benchmark was tuned on.
pub const NOMINAL_SECS: f64 = 0.020;

/// Drive time between two probes.
const SLICE: Duration = Duration::from_millis(200);

/// How many times slower than nominal the host runs right now (1.0 at
/// nominal speed, larger when slower).
pub fn slowdown() -> f64 {
    reference_secs() / NOMINAL_SECS
}

/// Seconds for the reference mix: BTreeMap and HashMap churn over 100k
/// keys and a sort of 200k integers.
fn reference_secs() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut bt = BTreeMap::new();
    let mut hm = HashMap::new();
    let mut acc = 0u64;
    for i in 0..75_000u64 {
        if let Some(v) = bt.insert(next() % 100_000, i) {
            acc = acc.wrapping_add(v);
        }
        *hm.entry(next() % 100_000).or_insert(0u64) += i;
        if i % 3 == 0 {
            bt.remove(&(next() % 100_000));
            hm.remove(&(next() % 100_000));
        }
    }
    let mut v: Vec<u64> = (0..200_000).map(|_| next()).collect();
    v.sort_unstable();
    acc = acc
        .wrapping_add(v[v.len() / 2])
        .wrapping_add(hm.len() as u64);
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// A drive's host time, cut into slices with a probe between each two.
pub struct Pacer {
    on: bool,
    slice: Instant,
    last: f64,
    raw: f64,
    scaled: f64,
}

impl Pacer {
    /// Probe now (if `on`); an off pacer only sums host time.
    pub fn start(on: bool) -> Pacer {
        Pacer {
            on,
            slice: Instant::now(),
            last: if on { slowdown() } else { 1.0 },
            raw: 0.0,
            scaled: 0.0,
        }
    }

    /// The latest probe's slowdown (1.0 when off).
    pub fn current(&self) -> f64 {
        self.last
    }

    /// Start timing the drive.
    pub fn begin(&mut self) {
        self.slice = Instant::now();
    }

    /// Called between steps of the drive: closes the slice once it is long
    /// enough. The probe runs outside the slice's time.
    #[inline]
    pub fn poll(&mut self) {
        if self.on && self.slice.elapsed() >= SLICE {
            self.close();
        }
    }

    fn close(&mut self) {
        let t = self.slice.elapsed().as_secs_f64();
        self.raw += t;
        if self.on {
            let p = slowdown();
            self.scaled += t / ((self.last + p) / 2.0);
            self.last = p;
        } else {
            self.scaled += t;
        }
        self.slice = Instant::now();
    }

    /// `(host seconds, host seconds at nominal speed)` of the drive.
    pub fn finish(mut self) -> (f64, f64) {
        self.close();
        (self.raw, self.scaled)
    }
}
