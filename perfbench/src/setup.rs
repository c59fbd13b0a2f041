//! Set-up shared by the workloads: the synthetic trace corpus, the fitted
//! workload generator, and characterization datasets — each derived from
//! the run's seed exactly as `llm-pilot characterize --seed` derives them.

use llmpilot_core::{CharacterizationDataset, CharacterizeConfig, SweepDriver, SweepReport};
use llmpilot_sim::gpu::paper_profiles;
use llmpilot_sim::llm::llm_catalog;
use llmpilot_traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llmpilot_workload::{WorkloadModel, WorkloadSampler};

use crate::clock;

/// Set-ups per untraced `sweep` or `evaluate` run; `setup_s` is their
/// median.
pub const SETUPS: usize = 5;

/// Trace-corpus size `llm-pilot characterize` fits its workload model to.
pub const TRACE_REQUESTS: usize = 60_000;

/// The workload generator for `seed`, with the CPU time of its two
/// layers: trace generation and model fitting.
pub struct Sampler {
    /// The fitted generator.
    pub sampler: WorkloadSampler,
    /// Seconds spent generating the trace corpus.
    pub traces_s: f64,
    /// Seconds spent fitting the workload model.
    pub fit_s: f64,
}

/// Generate the trace corpus for `seed` and fit the workload model to it.
pub fn sampler(seed: u64) -> Sampler {
    let t = clock::cpu();
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: TRACE_REQUESTS,
        seed,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let traces_s = t.elapsed_s();
    let t = clock::cpu();
    let model = WorkloadModel::fit(&traces, &Param::core()).expect("non-empty trace corpus");
    let fit_s = t.elapsed_s();
    Sampler { sampler: WorkloadSampler::new(model), traces_s, fit_s }
}

/// Run the full-grid sweep (10 catalog LLMs × 14 paper profiles) through
/// [`SweepDriver`] with default options: no faults, no journal, recorder
/// disabled.
pub fn sweep(
    sampler: &WorkloadSampler,
    config: &CharacterizeConfig,
) -> (CharacterizationDataset, SweepReport) {
    let (llms, profiles) = (llm_catalog(), paper_profiles());
    SweepDriver::builder(&llms, &profiles, sampler)
        .config(config.clone())
        .build()
        .expect("default sweep options are valid")
        .run()
        .expect("a sweep without a journal cannot fail on I/O")
}

/// Virtual seconds per load test of the datasets the evaluate and serve
/// workloads are built on. Model fitting cost depends on the row count
/// (544 over the full grid), not on the window, so a short window keeps
/// set-up cheap.
pub const DATASET_WINDOW_S: f64 = 30.0;

/// A full-grid dataset for `seed`; `variant` perturbs the per-cell
/// measurement seeds to give a second, different dataset of the same
/// shape.
pub fn dataset(sampler: &WorkloadSampler, variant: u64) -> CharacterizationDataset {
    let base = CharacterizeConfig::default();
    let config =
        CharacterizeConfig { duration_s: DATASET_WINDOW_S, seed: base.seed ^ variant, ..base };
    sweep(sampler, &config).0
}
