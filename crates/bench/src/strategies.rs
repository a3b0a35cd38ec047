//! Uniform construction and execution of every loading strategy.

use crate::workloads::{Workload, PIPELINE_WORKERS};
use sand_codec::Dataset;
use sand_core::{EngineConfig, SandEngine};
use sand_sim::{GpuSim, GpuSpec, NvdecModel, PowerModel};
use sand_train::loaders::{
    IdealLoader, NaiveCacheLoader, OnDemandCpuLoader, OnDemandGpuLoader, SandLoader,
};
use sand_train::{Loader, RunReport, SgdConfig, TaskPlan, Trainer, TrainerConfig};
use std::ops::Range;
use std::sync::Arc;

/// A loading strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// SAND engine with planning, pruning, and pre-materialization.
    Sand,
    /// On-demand CPU decode per iteration (PyAV/Decord-style).
    OnDemandCpu,
    /// DALI-style GPU preprocessing.
    OnDemandGpu,
    /// Naive decoded-frame cache with the given byte budget.
    NaiveCache(u64),
    /// Batches pre-staged in memory.
    Ideal,
}

impl Strategy {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Sand => "sand",
            Strategy::OnDemandCpu => "cpu",
            Strategy::OnDemandGpu => "gpu",
            Strategy::NaiveCache(_) => "naive-cache",
            Strategy::Ideal => "ideal",
        }
    }
}

/// Convenient error alias for harness code.
pub type HarnessResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Runs one (workload, strategy) pair for `epochs` and reports.
///
/// All strategies execute the *same planned batches* (same seed), so the
/// comparison isolates the execution strategy.
pub fn run_strategy(
    workload: &Workload,
    dataset: &Arc<Dataset>,
    strategy: Strategy,
    epochs: Range<u64>,
    seed: u64,
    train_model: bool,
) -> HarnessResult<RunReport> {
    let gpu = Arc::new(GpuSim::new(GpuSpec::a100()));
    let trainer = Trainer::new(Arc::clone(&gpu), PowerModel::default());
    let iters = (dataset.len() as u64).div_ceil(workload.task.sampling.videos_per_batch as u64);
    let config = TrainerConfig {
        profile: workload.profile.clone(),
        epochs: epochs.clone(),
        iters_per_epoch: iters,
        train_model,
        classes: workload.classes as usize,
        opt: SgdConfig::default(),
        vcpus: PIPELINE_WORKERS,
    };
    let mut loader: Box<dyn Loader> = match strategy {
        Strategy::Sand => {
            let engine = SandEngine::new(
                EngineConfig {
                    tasks: vec![workload.task.clone()],
                    total_epochs: epochs.end,
                    epochs_per_chunk: (epochs.end - epochs.start).max(1),
                    seed,
                    sched: sand_sched::SchedConfig {
                        threads: PIPELINE_WORKERS,
                        reserved_demand_threads: 0,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                Arc::clone(dataset),
            )?;
            engine.start()?;
            Box::new(SandLoader::with_prefetch(
                engine,
                &workload.task.tag,
                epochs.clone(),
                2,
            ))
        }
        Strategy::OnDemandCpu => {
            let plan = Arc::new(TaskPlan::single_task(
                &workload.task,
                dataset,
                epochs.clone(),
                seed,
            )?);
            Box::new(OnDemandCpuLoader::new(
                Arc::clone(dataset),
                plan,
                PIPELINE_WORKERS,
                2,
            ))
        }
        Strategy::OnDemandGpu => {
            let plan = Arc::new(TaskPlan::single_task(
                &workload.task,
                dataset,
                epochs.clone(),
                seed,
            )?);
            Box::new(OnDemandGpuLoader::new(
                Arc::clone(dataset),
                plan,
                NvdecModel::new(nvdec_spec()),
                PIPELINE_WORKERS,
                2,
            ))
        }
        Strategy::NaiveCache(budget) => {
            let plan = Arc::new(TaskPlan::single_task(
                &workload.task,
                dataset,
                epochs.clone(),
                seed,
            )?);
            Box::new(NaiveCacheLoader::new(
                Arc::clone(dataset),
                plan,
                PIPELINE_WORKERS,
                2,
                budget,
            ))
        }
        Strategy::Ideal => {
            let plan = TaskPlan::single_task(&workload.task, dataset, epochs.clone(), seed)?;
            Box::new(IdealLoader::new(dataset, &plan)?)
        }
    };
    Ok(trainer.run(loader.as_mut(), &config)?)
}

/// GPU spec whose NVDEC is scaled to our synthetic workloads so that
/// GPU-side preprocessing exceeds training by the paper's 1.3–2.7x.
#[must_use]
pub fn nvdec_spec() -> GpuSpec {
    GpuSpec {
        // Scaled: our frames are ~300x smaller than 720p, so an
        // NVDEC-per-frame cost comparable to the paper's needs a
        // proportionally smaller pixel rate.
        nvdec_pixels_per_sec: 1.9e8,
        ..GpuSpec::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::slowfast;

    #[test]
    fn every_strategy_runs_one_epoch() {
        let mut w = slowfast();
        // Shrink for test speed.
        w.dataset.num_videos = 4;
        w.profile.iter_time = std::time::Duration::from_millis(2);
        let ds = Arc::new(Dataset::generate(&w.dataset).unwrap());
        for strategy in [
            Strategy::Sand,
            Strategy::OnDemandCpu,
            Strategy::OnDemandGpu,
            Strategy::NaiveCache(1 << 20),
            Strategy::Ideal,
        ] {
            let report = run_strategy(&w, &ds, strategy, 0..1, 7, false).unwrap();
            assert_eq!(report.iterations, 1, "{strategy:?}");
            assert!(report.wall.as_nanos() > 0);
        }
    }
}
