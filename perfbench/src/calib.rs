//! Host-speed calibration of the end-to-end timings.
//!
//! On a shared 2-vCPU VM the speed a single thread gets switches between
//! states up to 1.7× apart that last from seconds to minutes, as
//! neighbours come and go, which no run length averages out. A fixed f32
//! kernel, compiled into the benchmark and sharing no code with the
//! program, is timed after every op. The workloads slow down less than the
//! kernel does: log-log slopes of op time against kernel time, fitted
//! within runs, were 0.6–0.75 on `frame`, 0.35–0.65 on `serve` and
//! 0.2–0.5 on `stream`. The host slowdown is therefore taken as the
//! kernel's time over [`REF_MS`] raised to [`ELASTICITY`], and the
//! end-to-end timings are divided by it: they read as the program would
//! run on a host where the kernel takes `REF_MS`. A change to the program
//! moves the op time and not the kernel, so it shows in full.

use std::hint::black_box;
use std::time::Instant;

/// Side of the kernel's square matrices.
const N: usize = 64;
/// Matrix products per sample.
const REPS: usize = 4;

/// Time of one sample at reference speed: the median the kernel took on
/// the 2-vCPU Xeon (AVX-512 VNNI) VM the bounds were set on.
pub const REF_MS: f64 = 1.4;

/// Exponent applied to the kernel's slowdown to estimate the workloads'.
pub const ELASTICITY: f64 = 0.5;

/// The calibration kernel and its buffers.
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect();
        Self {
            b: a.clone(),
            a,
            c: vec![0.0; N * N],
        }
    }
}

impl Calibrator {
    /// Times one sample of the kernel, in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REPS {
            self.c.fill(0.0);
            // Plain indexed loops: this form tracked the workloads' own
            // drift more closely than an explicitly vectorized one.
            for i in 0..N {
                for k in 0..N {
                    let x = self.a[i * N + k];
                    for j in 0..N {
                        self.c[i * N + j] += x * self.b[k * N + j];
                    }
                }
            }
            black_box(&mut self.c);
        }
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The host's slowdown against reference speed, from the median of `n`
    /// samples.
    pub fn slowdown(&mut self, n: usize) -> f64 {
        let samples: Vec<f64> = (0..n.max(1)).map(|_| self.sample_ms()).collect();
        (crate::stats::median(&samples) / REF_MS).powf(ELASTICITY)
    }
}
