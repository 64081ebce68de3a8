//! Host fingerprint and process memory.

use serde::Value;

/// What a record was measured on. Records are compared only when their
/// fingerprints are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Widest SIMD tier the GEMM kernels dispatch to on this CPU.
    pub simd_tier: &'static str,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Default width of the `solo-tensor` exec pool.
    pub pool_width: usize,
    /// Pool width the ops run at.
    pub measure_width: usize,
}

impl Fingerprint {
    /// Fingerprints the current host.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cpu_model,
            simd_tier: simd_tier(),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_width: solo_tensor::exec::pool().width(),
            measure_width: crate::MEASURE_WIDTH,
        }
    }

    /// The fingerprint as a value tree.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("simd_tier".into(), Value::Str(self.simd_tier.into())),
            (
                "available_parallelism".into(),
                Value::UInt(self.available_parallelism as u64),
            ),
            ("pool_width".into(), Value::UInt(self.pool_width as u64)),
            (
                "measure_width".into(),
                Value::UInt(self.measure_width as u64),
            ),
        ])
    }
}

/// The SIMD tier, named as the `solo-tensor` GEMM dispatch names its tiers.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return "avx512vnni";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
