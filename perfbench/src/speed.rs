//! Machine-speed correction of wall times.
//!
//! The benchmark shares its cores with other tenants, and their load moves
//! the speed of a core by tens of percent within seconds. A fixed reference
//! kernel (sorting a fixed array of pseudo-random words, cache-resident) is
//! therefore timed around every job and before every probe, and each wall
//! time is reported as `wall × (REF_NOMINAL_S / reference)^REF_EXPONENT`:
//! about the seconds it would have taken on a core running the kernel in
//! [`REF_NOMINAL_S`]. The kernel is timed warm (a second run right after an untimed one), so its
//! time reflects the core's speed and not what the job left in the caches:
//! a change to the library moves the job, not the kernel. Uncorrected wall
//! times are printed beside the corrected ones.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::median;

/// Words the reference kernel sorts (256 KiB).
const REF_WORDS: usize = 1 << 15;

/// The reference kernel's nominal time: about its median on an idle core
/// of the machine the baseline in `NOTES.md` was recorded on. A constant,
/// so corrected times compare across runs and commits on one machine.
pub const REF_NOMINAL_S: f64 = 0.000_6;

/// How much more than the kernel a job slows down on a loaded machine: the
/// jobs' working sets exceed the kernel's, so contention costs them more.
/// Fitted on the recording machine as the exponent that gave the steadiest
/// corrected medians over 20-second windows of long job series (`NOTES.md`).
pub const REF_EXPONENT: f64 = 1.2;

/// The factor that corrects a wall time measured while the kernel took
/// `reference_s` seconds.
pub fn correction(reference_s: f64) -> f64 {
    (REF_NOMINAL_S / reference_s).powf(REF_EXPONENT)
}

/// The reference kernel and its buffer.
#[derive(Debug)]
pub struct SpeedRef {
    buf: Vec<u64>,
}

impl Default for SpeedRef {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedRef {
    /// A kernel with its buffer allocated.
    pub fn new() -> Self {
        Self {
            buf: vec![0; REF_WORDS],
        }
    }

    /// Runs the kernel twice and returns the wall seconds of the second,
    /// warm run.
    pub fn measure(&mut self) -> f64 {
        self.kernel();
        let start = Instant::now();
        self.kernel();
        start.elapsed().as_secs_f64()
    }

    /// Fills the buffer with a fixed pseudo-random sequence and sorts it.
    fn kernel(&mut self) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.buf.sort_unstable();
        black_box(&self.buf);
    }

    /// The [`correction`] from the median of three kernel timings.
    pub fn factor(&mut self) -> f64 {
        let samples = [self.measure(), self.measure(), self.measure()];
        correction(median(&samples))
    }
}
