//! Host-speed calibration.
//!
//! On a shared 2-vCPU host the speed of a CPU second itself drifts with the
//! neighbours' load: within half an hour the CPU time of the same
//! exploration changed by a factor of about two between busy and quiet
//! stretches. The harness therefore runs a fixed calibration kernel
//! alongside each measured operation and scales the operation's CPU time
//! by how much slower than its reference time the kernel ran. The kernels
//! are harness code, so a change to the program never moves them.
//!
//! There are two kernels, because no one kernel tracks every workload:
//!
//! - [`calibrate`] (sorting, formatting, ordered-map inserts on a small
//!   working set) runs right before and after each exploration and set-up
//!   repetition;
//! - [`calibrate_memory`] (a dependent walk through a 32 MiB permutation)
//!   runs between served jobs. Over eight runs in which both kernels ran
//!   there, the daemon's CPU time per job correlated 0.92 with this
//!   kernel's time and 0.71 with [`calibrate`]'s; on explorations it
//!   tracked no better than [`calibrate`], and worse for the warm one.

use crate::inputs::splitmix;
use crate::proc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Median CPU seconds of one [`calibrate`] call on the reference host
/// (2-vCPU Xeon guest, quiet).
pub const REFERENCE_S: f64 = 0.0093;

/// Runs the calibration kernel once — sorting, string formatting and
/// ordered-map inserts, the mix of work an exploration does — and returns
/// the CPU seconds the calling thread spent on it.
pub fn calibrate() -> f64 {
    let t0 = proc::thread_cpu_s();
    let mut x = 0x5EED_u64;
    let mut values: Vec<u64> = (0..1 << 15)
        .map(|_| {
            x = splitmix(x);
            x
        })
        .collect();
    values.sort_unstable();
    let mut map = BTreeMap::new();
    let mut key = String::new();
    for (i, v) in values.iter().enumerate() {
        key.clear();
        let _ = write!(key, "P{}={v:x}", i % 97);
        map.insert(key.clone(), i);
    }
    std::hint::black_box(&map);
    proc::thread_cpu_s() - t0
}

/// How much slower than the reference host this host ran, from
/// calibration samples taken alongside the measurement (1.0 = reference
/// speed; 1.0 when there are no samples).
pub fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    crate::stats::median(samples) / REFERENCE_S
}

/// Entries of the [`calibrate_memory`] permutation: 32 MiB of `u32`, eight
/// times the reference guest's L2 and a large share of the L3 it shares
/// with its neighbours (105 MiB), so the walk's speed follows how much of
/// that cache and of the memory bandwidth the neighbours leave it.
const WALK_LEN: usize = 1 << 23;
/// Dependent loads per [`calibrate_memory`] call.
const WALK_STEPS: usize = 100_000;

/// Median CPU seconds of one [`calibrate_memory`] call on the reference
/// host in a busy stretch, while [`calibrate`] ran 1.5 to 1.9 times
/// slower than [`REFERENCE_S`].
pub const MEMORY_REFERENCE_S: f64 = 0.024;

/// Runs the memory kernel once — [`WALK_STEPS`] dependent loads through a
/// fixed single-cycle random permutation, so every load waits on the one
/// before and most miss the private caches — and returns the CPU seconds the
/// calling thread spent on it. The permutation is built on the first call,
/// outside the timing.
pub fn calibrate_memory() -> f64 {
    static WALK: OnceLock<Vec<u32>> = OnceLock::new();
    let walk = WALK.get_or_init(|| {
        // Sattolo's shuffle: a uniformly random permutation with one cycle.
        let mut v: Vec<u32> = (0..WALK_LEN as u32).collect();
        let mut x = 0x5EED_u64;
        for i in (1..WALK_LEN).rev() {
            x = splitmix(x);
            v.swap(i, (x % i as u64) as usize);
        }
        v
    });
    let t0 = proc::thread_cpu_s();
    let mut at = 0u32;
    for _ in 0..WALK_STEPS {
        at = walk[at as usize];
    }
    std::hint::black_box(at);
    proc::thread_cpu_s() - t0
}

/// [`slowdown`] for samples of [`calibrate_memory`].
pub fn memory_slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    crate::stats::median(samples) / MEMORY_REFERENCE_S
}
