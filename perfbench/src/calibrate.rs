//! Host-speed calibration for the `sweep` and `evaluate` timings.
//!
//! On a shared virtual machine the CPU time a fixed piece of work takes
//! drifts with what the neighbours run: on a 2-vCPU VM the same sweep took
//! 4.1 s of CPU in one ten-minute stretch and 3.0 s in the next, and a
//! fixed interpreted loop moved from ~160 ms to ~95 ms with it. No median
//! inside one run removes a drift that lasts longer than the run.
//!
//! So every run also times a fixed kernel that shares no code with the
//! program — fill, sort, scatter and reduce over a 256 KiB buffer — in
//! samples spread over the whole run, and scales its CPU times by
//! [`REFERENCE_S`] ÷ (the kernel's median sample). A figure then reads as
//! the CPU time the work would take at the speed at which one kernel
//! sample takes [`REFERENCE_S`]; a change to the program moves it as much
//! as it moves the raw CPU time, a change in the host's speed does not.
//! Each run prints its raw CPU times and the scale next to the scaled
//! figures. Ten back-to-back runs of one sweep on such a VM read
//! 2.53–2.88 s of raw CPU time, while its ratio to the kernel's median
//! sample stayed within 1436–1473.

use crate::clock;
use crate::report::Outcome;
use crate::stats::median;

/// CPU seconds one kernel sample takes at the reference speed: about what
/// it took on a 2-vCPU x86_64 VM (Xeon, 2.1 GHz) with quiet neighbours,
/// where it took 1.7–2.0 ms.
pub const REFERENCE_S: f64 = 0.002;

/// Kernel samples a run takes at each calibration point.
pub const SAMPLES: usize = 8;

/// Elements in the kernel's buffer (256 KiB of `f64`).
const ELEMENTS: usize = 1 << 15;
/// Buckets of the kernel's scatter step.
const BUCKETS: usize = 1 << 12;
/// Passes over the buffer in one sample.
const PASSES: usize = 2;

/// The calibration kernel and the samples taken so far.
pub struct Calibration {
    data: Vec<f64>,
    sorted: Vec<f64>,
    buckets: Vec<u32>,
    samples: Vec<f64>,
    checksum: Option<u64>,
    /// Whether every sample computed the same checksum.
    consistent: bool,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            data: vec![0.0; ELEMENTS],
            sorted: vec![0.0; ELEMENTS],
            buckets: vec![0; BUCKETS],
            samples: Vec::new(),
            checksum: None,
            consistent: true,
        }
    }
}

impl Calibration {
    /// One pass of the kernel over the preallocated buffers; the same
    /// checksum every time.
    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for v in &mut self.data {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
        self.sorted.copy_from_slice(&self.data);
        self.sorted.sort_unstable_by(f64::total_cmp);
        self.buckets.fill(0);
        for (i, v) in self.data.iter().enumerate() {
            self.buckets[((*v * 1e9) as usize ^ i) % BUCKETS] += 1;
        }
        let mut acc = 0.0f64;
        for chunk in self.sorted.chunks_exact(8) {
            acc = acc.mul_add(0.999, chunk.iter().sum::<f64>());
        }
        let mut h = acc.to_bits();
        for (i, &b) in self.buckets.iter().enumerate() {
            h = (h ^ (u64::from(b) << (i % 32))).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Take `n` samples of the kernel, each timed on the process's CPU
    /// clock.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = clock::cpu();
            let mut h = 0u64;
            for _ in 0..PASSES {
                h ^= std::hint::black_box(self.kernel());
            }
            self.samples.push(t.elapsed_s());
            self.consistent &= *self.checksum.get_or_insert(h) == h;
        }
    }

    /// Median CPU seconds of one sample; NaN before any sample.
    pub fn median_s(&self) -> f64 {
        median(&self.samples).unwrap_or(f64::NAN)
    }

    /// Factor that turns this run's CPU times into reference-speed times.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.median_s()
    }

    /// Samples taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Check the kernel's checksums, print the calibration and return the
    /// scale.
    pub fn report(&self, out: &mut Outcome) -> f64 {
        out.check(self.consistent, "calibration kernel computed one checksum");
        let scale = self.scale();
        println!(
            "  calibration: {} samples, median {:.4} ms CPU (reference {:.1} ms): scale {scale:.6}",
            self.len(),
            self.median_s() * 1e3,
            REFERENCE_S * 1e3
        );
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scale_is_positive() {
        let mut c = Calibration::default();
        c.sample(3);
        assert!(c.consistent);
        assert_eq!(c.len(), 3);
        let first = c.checksum;
        let mut d = Calibration::default();
        d.sample(1);
        assert_eq!(d.checksum, first, "a fresh kernel computes the same checksum");
        assert!(c.scale().is_finite() && c.scale() > 0.0);
    }
}
