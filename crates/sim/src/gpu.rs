//! The GPU model: compute profiles, memory, NVDEC, and utilization.

use crate::{Result, SimError};
use parking_lot::Mutex;
use std::time::Duration;

/// Scale between modeled device time and wall-clock time.
///
/// Experiments run the preprocessing pipeline for real but model GPU
/// compute; a scale of `20.0` means 20 ms of modeled GPU time costs 1 ms
/// of wall clock when the trainer thread sleeps it off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale(pub f64);

impl Default for TimeScale {
    fn default() -> Self {
        TimeScale(1.0)
    }
}

impl TimeScale {
    /// Converts modeled time to wall-clock time.
    #[must_use]
    pub fn to_wall(&self, modeled: Duration) -> Duration {
        if self.0 <= 0.0 {
            return Duration::ZERO;
        }
        modeled.div_f64(self.0)
    }

    /// Converts wall-clock time back to modeled time.
    #[must_use]
    pub fn to_modeled(&self, wall: Duration) -> Duration {
        wall.mul_f64(self.0.max(0.0))
    }
}

/// Static description of a GPU (A100-like defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// NVDEC throughput in decoded pixels per second.
    pub nvdec_pixels_per_sec: f64,
    /// Fraction of device memory the NVDEC path reserves for decode
    /// surfaces and staging when GPU decoding is active, per input pixel
    /// of the video being decoded (bytes per pixel of working set).
    pub nvdec_bytes_per_pixel: f64,
}

impl GpuSpec {
    /// An A100-40GB-like profile, scaled for the synthetic experiments.
    #[must_use]
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100-40GB".into(),
            memory_bytes: 40 << 30,
            nvdec_pixels_per_sec: 1.2e9,
            nvdec_bytes_per_pixel: 22.0,
        }
    }
}

/// Per-model compute and memory profile.
///
/// The four profiles mirror the paper's workloads. `iter_time` is the
/// modeled GPU compute per iteration at `ref_batch`; memory terms define
/// the Fig. 4 batch-size arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Model name.
    pub name: String,
    /// Modeled GPU compute time per iteration at `ref_batch`.
    pub iter_time: Duration,
    /// Reference batch size for `iter_time`.
    pub ref_batch: usize,
    /// Device memory per sample, as bytes per input pixel of the sample.
    pub mem_bytes_per_pixel: f64,
    /// Fixed device memory (weights, activations, optimizer state).
    pub fixed_mem_bytes: u64,
}

impl ModelProfile {
    /// SlowFast action recognition (paper workload 1).
    #[must_use]
    pub fn slowfast() -> Self {
        ModelProfile {
            name: "SlowFast".into(),
            iter_time: Duration::from_millis(220),
            ref_batch: 8,
            mem_bytes_per_pixel: 290.0,
            fixed_mem_bytes: 6 << 30,
        }
    }

    /// VideoMAE self-supervised pretraining (paper workload 2).
    #[must_use]
    pub fn mae() -> Self {
        ModelProfile {
            name: "MAE".into(),
            iter_time: Duration::from_millis(160),
            ref_batch: 8,
            mem_bytes_per_pixel: 36.0,
            fixed_mem_bytes: 8 << 30,
        }
    }

    /// HD-VILA video captioning (paper workload 3).
    #[must_use]
    pub fn hdvila() -> Self {
        ModelProfile {
            name: "HD-VILA".into(),
            iter_time: Duration::from_millis(300),
            ref_batch: 8,
            mem_bytes_per_pixel: 56.0,
            fixed_mem_bytes: 10 << 30,
        }
    }

    /// BasicVSR++ video super-resolution (paper workload 4).
    #[must_use]
    pub fn basicvsr() -> Self {
        ModelProfile {
            name: "BasicVSR++".into(),
            iter_time: Duration::from_millis(400),
            ref_batch: 8,
            mem_bytes_per_pixel: 90.0,
            fixed_mem_bytes: 7 << 30,
        }
    }

    /// All four paper workloads.
    #[must_use]
    pub fn paper_workloads() -> Vec<ModelProfile> {
        vec![
            Self::slowfast(),
            Self::mae(),
            Self::hdvila(),
            Self::basicvsr(),
        ]
    }

    /// Modeled compute time for one iteration at `batch` samples.
    #[must_use]
    pub fn compute_time(&self, batch: usize) -> Duration {
        self.iter_time.mul_f64(batch as f64 / self.ref_batch as f64)
    }
}

/// The Fig. 4 memory arithmetic.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    spec: GpuSpec,
}

impl MemoryModel {
    /// Creates a memory model over a GPU spec.
    #[must_use]
    pub fn new(spec: GpuSpec) -> Self {
        MemoryModel { spec }
    }

    /// Maximum batch size for `model` on clips of `frames` frames at
    /// `w x h x c`, optionally with GPU decoding active (which reserves
    /// NVDEC working memory proportional to the *source* video pixels).
    // The argument list mirrors the experiment's physical knobs 1:1; a
    // params struct would only relocate the same nine names.
    #[allow(clippy::too_many_arguments)]
    pub fn max_batch_size(
        &self,
        model: &ModelProfile,
        frames: usize,
        w: usize,
        h: usize,
        c: usize,
        src_w: usize,
        src_h: usize,
        decode_on_gpu: bool,
    ) -> Result<usize> {
        let sample_pixels = (frames * w * h * c) as f64;
        let per_sample = (sample_pixels * model.mem_bytes_per_pixel) as u64;
        if per_sample == 0 {
            return Err(SimError::InvalidConfig {
                what: "zero-size sample".into(),
            });
        }
        let mut reserved = model.fixed_mem_bytes;
        if decode_on_gpu {
            // NVDEC surface pool: reference frames + staging at source
            // resolution, per decode stream (one per sample being fed).
            let decode_ws = (src_w * src_h) as f64 * self.spec.nvdec_bytes_per_pixel * 256.0;
            reserved += decode_ws as u64;
        }
        if reserved >= self.spec.memory_bytes {
            return Err(SimError::DoesNotFit {
                what: format!(
                    "{} fixed memory exceeds device ({} > {})",
                    model.name, reserved, self.spec.memory_bytes
                ),
            });
        }
        let available = self.spec.memory_bytes - reserved;
        Ok((available / per_sample) as usize)
    }
}

/// NVDEC hardware-decoder throughput model.
#[derive(Debug, Clone)]
pub struct NvdecModel {
    spec: GpuSpec,
}

impl NvdecModel {
    /// Creates an NVDEC model over a GPU spec.
    #[must_use]
    pub fn new(spec: GpuSpec) -> Self {
        NvdecModel { spec }
    }

    /// Modeled time to decode `frames` frames of `w x h` video.
    #[must_use]
    pub fn decode_time(&self, frames: u64, w: usize, h: usize) -> Duration {
        let pixels = frames as f64 * (w * h) as f64;
        Duration::from_secs_f64(pixels / self.spec.nvdec_pixels_per_sec)
    }
}

/// Busy/stall accounting for one simulated GPU.
#[derive(Debug, Default)]
struct GpuState {
    busy: Duration,
    stalled: Duration,
    iterations: u64,
}

/// A simulated GPU accumulating utilization statistics.
#[derive(Debug)]
pub struct GpuSim {
    spec: GpuSpec,
    state: Mutex<GpuState>,
}

impl GpuSim {
    /// Creates a simulated GPU.
    #[must_use]
    pub fn new(spec: GpuSpec) -> Self {
        GpuSim {
            spec,
            state: Mutex::new(GpuState::default()),
        }
    }

    /// The device spec.
    #[must_use]
    pub const fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Records one iteration's compute time (GPU busy).
    pub fn record_compute(&self, modeled: Duration) {
        let mut s = self.state.lock();
        s.busy += modeled;
        s.iterations += 1;
    }

    /// Records time the GPU spent waiting for input (stalled).
    pub fn record_stall(&self, modeled: Duration) {
        self.state.lock().stalled += modeled;
    }

    /// GPU utilization in `[0, 1]`: busy / (busy + stalled).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let s = self.state.lock();
        let total = s.busy + s.stalled;
        if total.is_zero() {
            return 0.0;
        }
        s.busy.as_secs_f64() / total.as_secs_f64()
    }

    /// Total modeled busy time.
    #[must_use]
    pub fn busy_time(&self) -> Duration {
        self.state.lock().busy
    }

    /// Iterations completed.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.state.lock().iterations
    }

    /// Clears the accounting.
    pub fn reset(&self) {
        *self.state.lock() = GpuState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_scale_conversions() {
        let s = TimeScale(10.0);
        assert_eq!(s.to_wall(Duration::from_secs(10)), Duration::from_secs(1));
        assert_eq!(
            s.to_modeled(Duration::from_secs(1)),
            Duration::from_secs(10)
        );
        assert_eq!(
            TimeScale(0.0).to_wall(Duration::from_secs(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn compute_time_scales_with_batch() {
        let m = ModelProfile::slowfast();
        let t8 = m.compute_time(8);
        let t16 = m.compute_time(16);
        assert_eq!(t16, t8 * 2);
    }

    #[test]
    fn utilization_accounting() {
        let g = GpuSim::new(GpuSpec::a100());
        g.record_compute(Duration::from_millis(300));
        g.record_stall(Duration::from_millis(700));
        assert!((g.utilization() - 0.3).abs() < 1e-9);
        assert_eq!(g.iterations(), 1);
        g.reset();
        assert_eq!(g.utilization(), 0.0);
    }

    #[test]
    fn gpu_decode_reduces_batch_size() {
        // Fig. 4: at 1080p, GPU decoding shrinks the max batch.
        let mm = MemoryModel::new(GpuSpec::a100());
        let m = ModelProfile::slowfast();
        let cpu_batch = mm
            .max_batch_size(&m, 32, 224, 224, 3, 1920, 1080, false)
            .unwrap();
        let gpu_batch = mm
            .max_batch_size(&m, 32, 224, 224, 3, 1920, 1080, true)
            .unwrap();
        assert!(gpu_batch < cpu_batch, "gpu {gpu_batch} vs cpu {cpu_batch}");
        // The paper reports 16 vs 24; the ratio should be in that vicinity.
        let ratio = gpu_batch as f64 / cpu_batch as f64;
        assert!((0.5..0.95).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn higher_resolution_hurts_gpu_decode_more() {
        let mm = MemoryModel::new(GpuSpec::a100());
        let m = ModelProfile::slowfast();
        let b720 = mm
            .max_batch_size(&m, 32, 224, 224, 3, 1280, 720, true)
            .unwrap();
        let b1080 = mm
            .max_batch_size(&m, 32, 224, 224, 3, 1920, 1080, true)
            .unwrap();
        assert!(b1080 <= b720);
    }

    #[test]
    fn oversized_model_rejected() {
        let mut spec = GpuSpec::a100();
        spec.memory_bytes = 1 << 30;
        let mm = MemoryModel::new(spec);
        let m = ModelProfile::hdvila(); // 10 GiB fixed
        assert!(matches!(
            mm.max_batch_size(&m, 32, 224, 224, 3, 1280, 720, false),
            Err(SimError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn nvdec_time_scales_with_pixels() {
        let n = NvdecModel::new(GpuSpec::a100());
        let a = n.decode_time(100, 1280, 720);
        let b = n.decode_time(200, 1280, 720);
        assert!((b.as_secs_f64() - 2.0 * a.as_secs_f64()).abs() < 1e-12);
    }

    #[test]
    fn paper_workloads_have_distinct_profiles() {
        let ws = ModelProfile::paper_workloads();
        assert_eq!(ws.len(), 4);
        let names: Vec<_> = ws.iter().map(|w| w.name.clone()).collect();
        assert!(names.contains(&"SlowFast".to_string()));
        assert!(names.contains(&"BasicVSR++".to_string()));
    }
}
