//! Machine-speed calibration for the CPU-bound workloads.
//!
//! On a shared machine the speed a process gets drifts by up to ~1.8×
//! over seconds to minutes, with no stolen time to show for it. The
//! CPU-bound workloads (`mem-small-blocks`, `file-twopass-large-blocks`
//! and `sim-trials`) drift with it one for one. A fixed kernel that
//! belongs to the benchmark (`sort_unstable` of a fixed 500 000-key
//! array, no code of the program) is timed next to the measured work,
//! by the process's CPU time like that work. The work's times are then
//! reported at the reference speed: `time × REFERENCE_S / kernel time`.
//! A change to the program cannot move the kernel, so it moves the
//! reported times in full, while the machine's drift cancels.

use crate::stats::process_cpu_s;

/// The kernel's time on the machine the bounds in `BENCHMARK.json`
/// were set on (2-vCPU Intel Xeon VM at 2.0 GHz, in its slower phase).
pub const REFERENCE_S: f64 = 16.0e-3;

/// 4 MB of keys: the size of the machine's L2 cache, between the
/// simulator's cache-resident working set and the exec workloads' larger
/// ones.
const KEYS: usize = 500_000;

pub struct Calibration {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let keys: Vec<u64> = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let scratch = keys.clone();
        Calibration { keys, scratch }
    }

    /// The factor that scales a CPU-bound time measured now to the
    /// reference speed, from one timing of the kernel.
    pub fn factor(&mut self) -> f64 {
        self.scratch.copy_from_slice(&self.keys);
        let start = process_cpu_s();
        std::hint::black_box(&mut self.scratch).sort_unstable();
        REFERENCE_S / (process_cpu_s() - start)
    }
}
