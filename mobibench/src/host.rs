//! The host the benchmark runs on: its cores, its CPU model, and a fixed
//! kernel that measures how fast it is running at the moment.
//!
//! On a shared machine, neighbours slow a simulation down by up to 2× for
//! seconds to minutes at a time. Timing a fixed kernel next to every timed
//! simulation, in the same process, measures that slowdown, and the
//! benchmark divides it out (see [`KERNEL_REFERENCE_S`]). The kernel uses
//! none of the simulator's code, so a change to the simulator moves the
//! simulation's time and not the kernel's.

use std::hint::black_box;
use std::time::Instant;

/// Seconds [`kernel_s`] takes on an idle reference host, a 2-core Intel
/// Xeon VM at 2.1 GHz. Times scaled by `KERNEL_REFERENCE_S / kernel_s()`
/// read as if measured there.
pub const KERNEL_REFERENCE_S: f64 = 0.005;

/// Table of the kernel: 1 MiB, inside a core's private L2 on the
/// reference host, like the hot state of the smaller simulations.
const KERNEL_WORDS: usize = 1 << 17;

/// Steps of one timed kernel pass (~5 ms on the reference host).
const KERNEL_STEPS: u32 = 1_000_000;

/// Times one pass of a fixed CPU-bound kernel: pseudo-random
/// read-modify-writes with a data-dependent branch over a 1 MiB table,
/// freshly allocated and warmed before the clock starts. Returns seconds.
pub fn kernel_s() -> f64 {
    let mut table: Vec<u64> = (0..KERNEL_WORDS as u64).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut pass = |table: &mut [u64], steps: u32| {
        for _ in 0..steps {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (state >> 33) as usize % KERNEL_WORDS;
            if table[i] & 1 == 0 {
                table[i] = table[i].wrapping_add(state >> 7);
            } else {
                table[(i + 1) % KERNEL_WORDS] ^= state;
            }
        }
    };
    pass(&mut table, KERNEL_STEPS / 5);
    let started = Instant::now();
    pass(&mut table, KERNEL_STEPS);
    let secs = started.elapsed().as_secs_f64();
    black_box(&table);
    secs
}

/// Cores the host offers this process.
pub fn host_cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// The CPU model `/proc/cpuinfo` reports, for the host fingerprint.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
