//! Shared measurement plumbing: seeded input streams, order statistics,
//! bitwise fingerprints, and the process memory high-water mark.

use std::time::Instant;

/// SplitMix64: the seed stream every workload derives its inputs from, so
/// one `--seed` fixes every generated input.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Quantile `q` of `values` with linear interpolation between order
/// statistics (the "type 7" definition). Returns NaN on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over a stream of 64-bit words: a bitwise fingerprint of
/// simulated results, so repeats and traced replays compare exactly
/// without keeping whole traces around.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    pub fn str(&mut self, text: &str) {
        for chunk in text.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }

    /// Every channel's name and every sample's time and value, in order.
    pub fn traces(&mut self, traces: &gfsc::sim::TraceSet) {
        for trace in traces.iter() {
            self.str(trace.name());
            for (t, v) in trace.iter() {
                self.f64(t);
                self.f64(v);
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The end-to-end figures every workload reports (the `--trace 0` set).
/// Every host time in them is the fastest repeat of identical work.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Simulated (or, for the daemon, controlled) seconds per host second.
    pub sim_s_per_wall_s: f64,
    /// Independent closed-loop runs completed per host second.
    pub cells_per_s: f64,
    /// Host milliseconds per 1 Hz control cycle, median.
    pub cycle_p50_ms: f64,
    /// Host milliseconds per 1 Hz control cycle, 99th percentile.
    pub cycle_p99_ms: f64,
    /// Host seconds to build the workload's sims, banks, grids and
    /// adapters: the median over the run's set-ups.
    pub setup_s: f64,
}

/// What a run reports besides its metrics: checks attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; `what` is printed when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// One per-layer metric value.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub value: f64,
}

impl Layer {
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Self { name: name.into(), value }
    }
}
