//! The performance characterization tool (Sec. III, Fig. 2).
//!
//! For every `(LLM, GPU profile)` combination, LLM-Pilot (1) deploys the
//! inference service, (2) tunes the maximum batch weight to maximize GPU
//! utilization, and (3) runs a series of load-testing experiments with
//! exponentially increasing numbers of concurrent users, collecting TTFT,
//! normalized TTFT, inter-token latency and throughput. Cells are
//! independent, so the grid sweep fans them out with rayon's `par_iter`;
//! the vendored `third_party/rayon` runs that fan-out sequentially on the
//! calling thread, in grid order.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use llmpilot_obs::Recorder;
use llmpilot_sim::engine::{Engine, PhaseHists};
use llmpilot_sim::error::SimError;
use llmpilot_sim::fault::FaultPlan;
use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::LlmSpec;
use llmpilot_sim::load::{default_user_sweep, run_load_test_with, LoadTestConfig, SampleHists};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::request::{RequestSource, RequestSpec};
use llmpilot_sim::tuner::tune_max_batch_weight_with;
use llmpilot_workload::{IndependentSampler, WorkloadSampler};

use crate::dataset::{CharacterizationDataset, PerfRow};

/// Adapter: drive the simulator with requests drawn from the workload
/// generator's joint model.
#[derive(Debug)]
pub struct WorkloadRequestSource {
    sampler: WorkloadSampler,
    rng: StdRng,
}

impl WorkloadRequestSource {
    /// A seeded request stream over the given sampler.
    pub fn new(sampler: WorkloadSampler, seed: u64) -> Self {
        Self { sampler, rng: StdRng::seed_from_u64(seed) }
    }
}

impl RequestSource for WorkloadRequestSource {
    fn next_request(&mut self) -> RequestSpec {
        let r = self.sampler.sample(&mut self.rng);
        RequestSpec {
            input_tokens: r.input_tokens().unwrap_or(1),
            output_tokens: r.output_tokens().unwrap_or(1),
            batch_size: r.batch_size().unwrap_or(1),
        }
    }
}

/// Adapter for the Sec. V-A ablation: requests with *independently* sampled
/// parameters (marginals preserved, correlations destroyed).
#[derive(Debug)]
pub struct IndependentRequestSource {
    sampler: IndependentSampler,
    rng: StdRng,
}

impl IndependentRequestSource {
    /// A seeded independent-marginals request stream.
    pub fn new(sampler: IndependentSampler, seed: u64) -> Self {
        Self { sampler, rng: StdRng::seed_from_u64(seed) }
    }
}

impl RequestSource for IndependentRequestSource {
    fn next_request(&mut self) -> RequestSpec {
        let r = self.sampler.sample(&mut self.rng);
        RequestSpec {
            input_tokens: r.input_tokens().unwrap_or(1),
            output_tokens: r.output_tokens().unwrap_or(1),
            batch_size: r.batch_size().unwrap_or(1),
        }
    }
}

/// Configuration of a characterization sweep.
#[derive(Debug, Clone)]
pub struct CharacterizeConfig {
    /// Duration of each load test, virtual seconds (the paper: 2 minutes).
    pub duration_s: f64,
    /// Warm-up period excluded from the metrics (the paper: none).
    pub warmup_s: f64,
    /// Concurrent-user sweep (the paper: 1, 2, 4, …, 128).
    pub user_sweep: Vec<u32>,
    /// Base seed; per-cell streams derive from it deterministically.
    pub seed: u64,
    /// Memory-model constants.
    pub mem_config: MemoryConfig,
    /// Performance-model constants.
    pub perf_config: PerfModelConfig,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        Self {
            duration_s: 120.0,
            warmup_s: 0.0,
            user_sweep: default_user_sweep(),
            seed: 0xB17,
            mem_config: MemoryConfig::default(),
            perf_config: PerfModelConfig::default(),
        }
    }
}

/// Deterministic per-cell seed (FNV-1a over the cell identity).
fn cell_seed(base: u64, llm: &str, profile: &str, users: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    for b in llm.bytes().chain(profile.bytes()).chain(users.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The typed result of characterizing one `(LLM, GPU profile)` cell.
///
/// The three variants are semantically distinct and must never be
/// conflated: an [`CellOutcome::Infeasible`] cell is *permanently*
/// impossible (an × or − cell of Table III — retrying is pointless), while a
/// [`CellOutcome::Failed`] cell hit a (possibly transient) error and may
/// succeed on retry.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell was measured successfully.
    Measured {
        /// The tuned maximum batch weight.
        max_batch_weight: u64,
        /// One row per user count of the sweep (NaN-median points dropped).
        rows: Vec<PerfRow>,
    },
    /// The combination cannot be deployed, ever (Table III's × and − cells).
    Infeasible(String),
    /// The cell errored; the error may be transient (injected fault, budget
    /// exhaustion) and a retry may succeed.
    Failed {
        /// The error of the last attempt.
        error: SimError,
        /// Attempts made so far (1 for a first failure).
        attempts: u32,
    },
}

impl CellOutcome {
    /// The measured payload, if any.
    pub fn measured(self) -> Option<(u64, Vec<PerfRow>)> {
        match self {
            CellOutcome::Measured { max_batch_weight, rows } => Some((max_batch_weight, rows)),
            _ => None,
        }
    }

    /// Whether the cell errored (retryable).
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }
}

/// Optional per-cell tail-latency observation: sample histograms for the
/// load tester plus shared per-phase duration histograms for the engines.
/// One instance aggregates across every load test of the cell.
#[derive(Debug, Default)]
pub struct CellHists {
    /// Per-request normalized-TTFT and per-gap ITL samples.
    pub samples: SampleHists,
    /// Per-phase (prefill/decode) engine step durations; `Arc` because
    /// every load test's engine shares the same sink.
    pub phases: Arc<PhaseHists>,
}

/// How one attempt at a cell runs: the faults it faces, its attempt number,
/// its step budget, and what observes it. [`CellRun::default`] is a
/// fault-free first attempt with no budget and no observation — exactly
/// [`characterize_cell`].
#[derive(Debug, Default)]
pub struct CellRun {
    /// Faults to inject ([`FaultPlan::none`] by default).
    pub plan: FaultPlan,
    /// Zero-based attempt number; it selects the fault sites, never the
    /// measurement seed.
    pub attempt: u32,
    /// Maximum engine steps across all load tests of the cell; exhausting
    /// it turns the cell into [`CellOutcome::Failed`] with
    /// [`SimError::BudgetExhausted`] instead of letting the sweep hang.
    pub max_steps: Option<u64>,
    /// Observability sink: every load test runs under a `cell.load_test`
    /// span (with the user count as an argument) and the engine inherits
    /// it, so engine-phase spans nest beneath the load test that produced
    /// them. Disabled by default.
    pub recorder: Recorder,
    /// Tail-latency sinks: when set, every load test additionally records
    /// per-sample nTTFT/ITL and per-phase prefill/decode durations here.
    pub hists: Option<CellHists>,
}

/// Characterize one `(LLM, GPU profile)` cell: tune the batch weight, then
/// load-test every user count.
pub fn characterize_cell(
    llm: &LlmSpec,
    profile: &GpuProfile,
    sampler: &WorkloadSampler,
    config: &CharacterizeConfig,
) -> CellOutcome {
    characterize_cell_with(llm, profile, sampler, config, &CellRun::default())
}

/// [`characterize_cell`] under the faults, attempt number, budget and
/// observation of `run`.
///
/// Fault sites are derived from the cell identity *and* the attempt number
/// (`{llm}/{profile}#a{attempt}` for deploy/tuning,
/// `{llm}/{profile}/u{users}#a{attempt}` for each load test), so a retry
/// draws fresh fault decisions — while the measurement seed
/// ([`cell_seed`], attempt-independent) stays fixed. A retried attempt that
/// dodges its faults therefore produces rows bit-identical to a fault-free
/// run. Tracing and histograms never perturb the measurement either: with
/// no faults and no budget the rows equal [`characterize_cell`]'s.
pub fn characterize_cell_with(
    llm: &LlmSpec,
    profile: &GpuProfile,
    sampler: &WorkloadSampler,
    config: &CharacterizeConfig,
    run: &CellRun,
) -> CellOutcome {
    let CellRun { plan, attempt, max_steps, recorder, hists } = run;
    let cell = format!("{}/{}", llm.name, profile.name());
    let site = format!("{cell}#a{attempt}");
    let attempts = attempt + 1;

    let mem = MemoryModel::new(llm.clone(), profile.clone(), config.mem_config.clone());
    let feas = mem.feasibility();
    if !feas.is_feasible() {
        return CellOutcome::Infeasible(format!("{feas:?}"));
    }
    if plan.deploy_fails(&site) {
        return CellOutcome::Failed {
            error: SimError::DeployFailed { llm: llm.name.to_string(), profile: profile.name() },
            attempts,
        };
    }
    let tuned = match tune_max_batch_weight_with(&mem, plan, &site, recorder) {
        Ok(t) => t,
        // No valid weight exists: a deterministic property of the
        // combination, i.e. infeasible — never retried.
        Err(e @ SimError::TuningFailed { .. }) => return CellOutcome::Infeasible(e.to_string()),
        // Everything else (injected OOM, divergence) is a failure.
        Err(error) => return CellOutcome::Failed { error, attempts },
    };

    let mut steps_left = *max_steps;
    let mut rows = Vec::with_capacity(config.user_sweep.len());
    for &users in &config.user_sweep {
        let _load_span = recorder.span("cell.load_test").arg("users", users);
        let load_site = format!("{cell}/u{users}#a{attempt}");
        let perf = PerfModel::new(llm.clone(), profile.clone(), config.perf_config.clone());
        let mut engine = Engine::new(perf, tuned.max_batch_weight)
            .with_latency_noise(plan.latency_noise(&load_site))
            .with_recorder(recorder.clone());
        if let Some(h) = hists {
            engine = engine.with_phase_hists(Arc::clone(&h.phases));
        }
        let mut source = WorkloadRequestSource::new(
            sampler.clone(),
            cell_seed(config.seed, llm.name, &profile.name(), users),
        );
        let mut faults = plan.load_faults(&load_site, config.duration_s);
        faults.max_steps = steps_left;
        let result = run_load_test_with(
            &mut engine,
            &mem,
            &mut source,
            &LoadTestConfig {
                duration_s: config.duration_s,
                warmup_s: config.warmup_s,
                concurrent_users: users,
            },
            &mut faults,
            hists.as_ref().map(|h| &h.samples),
        );
        // The step budget is per cell: steps spent on this load test are
        // gone for the remaining ones.
        if let Some(left) = steps_left {
            steps_left = Some(left.saturating_sub(faults.steps_used));
        }
        let metrics = match result {
            Ok(m) => m,
            Err(error) => return CellOutcome::Failed { error, attempts },
        };
        // Pathological windows (nothing measurable post-warmup) yield NaN
        // medians; drop such points rather than poisoning the dataset.
        if !(metrics.ttft_median_s.is_finite()
            && metrics.nttft_median_s.is_finite()
            && metrics.itl_median_s.is_finite()
            && metrics.throughput_tokens_per_s.is_finite())
        {
            continue;
        }
        rows.push(PerfRow {
            llm: llm.name.to_string(),
            profile: profile.name(),
            users,
            ttft_s: metrics.ttft_median_s,
            nttft_s: metrics.nttft_median_s,
            itl_s: metrics.itl_median_s,
            throughput: metrics.throughput_tokens_per_s,
        });
    }
    CellOutcome::Measured { max_batch_weight: tuned.max_batch_weight, rows }
}

/// Run the full characterization sweep over an LLM × GPU-profile grid.
/// Cells fan out through rayon's `par_iter`, which the vendored shim runs
/// sequentially; results are collected in grid order. Infeasible cells are
/// skipped, like the paper's Table III.
pub fn characterize(
    llms: &[LlmSpec],
    profiles: &[GpuProfile],
    sampler: &WorkloadSampler,
    config: &CharacterizeConfig,
) -> CharacterizationDataset {
    let cells: Vec<(LlmSpec, GpuProfile)> =
        llms.iter().flat_map(|m| profiles.iter().map(move |p| (m.clone(), p.clone()))).collect();

    type MeasuredCell = (String, String, u64, Vec<PerfRow>);
    let results: Vec<Option<MeasuredCell>> = cells
        .par_iter()
        .map(|(llm, profile)| {
            characterize_cell(llm, profile, sampler, config)
                .measured()
                .map(|(w, rows)| (llm.name.to_string(), profile.name(), w, rows))
        })
        .collect();

    let mut ds = CharacterizationDataset::default();
    for (llm, profile, weight, rows) in results.into_iter().flatten() {
        ds.tuned_weights.insert((llm, profile), weight);
        ds.rows.extend(rows);
    }
    ds
}

/// Estimate of the wall-clock overhead of running this characterization on
/// *real* hardware (Sec. V-B "characterization overhead"): per LLM, batch
/// weight tuning costs roughly `tuning_minutes_per_llm`, and load testing
/// costs deploy time plus the user sweep at `duration_s` each; work is
/// parallelized over GPU profiles, so LLMs are the serial dimension.
pub fn estimate_real_overhead_hours(
    num_llms: usize,
    user_sweep_len: usize,
    duration_s: f64,
    tuning_minutes_per_llm: f64,
) -> f64 {
    let load_minutes_per_llm =
        4.0 /* deploy + warmup */ + user_sweep_len as f64 * duration_s / 60.0;
    num_llms as f64 * (tuning_minutes_per_llm + load_minutes_per_llm) / 60.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpilot_sim::gpu::{a100_40, t4, v100};
    use llmpilot_sim::llm::{flan_t5_xl, flan_ul2, llama2_13b, llama2_7b};
    use llmpilot_traces::{Param, TraceGenerator, TraceGeneratorConfig};
    use llmpilot_workload::WorkloadModel;

    fn sampler() -> WorkloadSampler {
        let traces = TraceGenerator::new(TraceGeneratorConfig {
            num_requests: 20_000,
            seed: 55,
            ..TraceGeneratorConfig::default()
        })
        .generate();
        let model = WorkloadModel::fit(
            &traces,
            &[Param::InputTokens, Param::OutputTokens, Param::BatchSize],
        )
        .unwrap();
        WorkloadSampler::new(model)
    }

    fn quick_config() -> CharacterizeConfig {
        CharacterizeConfig {
            duration_s: 20.0,
            user_sweep: vec![1, 8, 64],
            ..CharacterizeConfig::default()
        }
    }

    #[test]
    fn cell_produces_one_row_per_user_count() {
        let s = sampler();
        let (weight, rows) =
            characterize_cell(&llama2_13b(), &GpuProfile::new(a100_40(), 1), &s, &quick_config())
                .measured()
                .unwrap();
        assert!(weight > 0);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.ttft_s > 0.0);
            assert!(r.itl_s > 0.0);
            assert!(r.nttft_s > 0.0);
            assert!(r.throughput > 0.0);
        }
        // Latency degrades with load.
        assert!(rows[2].ttft_s >= rows[0].ttft_s);
    }

    #[test]
    fn infeasible_cells_are_skipped() {
        let s = sampler();
        assert!(matches!(
            characterize_cell(&flan_ul2(), &GpuProfile::new(t4(), 1), &s, &quick_config()),
            CellOutcome::Infeasible(_)
        ));
        // Flash model on V100: software-unsupported.
        assert!(matches!(
            characterize_cell(&llama2_7b(), &GpuProfile::new(v100(), 1), &s, &quick_config()),
            CellOutcome::Infeasible(_)
        ));
    }

    #[test]
    fn injected_load_error_is_failed_never_infeasible() {
        // Regression: a load-test error used to be swallowed by `.ok()?`,
        // making an errored cell indistinguishable from a permanently
        // infeasible one. It must surface as a retryable `Failed`.
        use llmpilot_sim::fault::{FaultConfig, FaultPlan};
        let s = sampler();
        let plan = FaultPlan::new(FaultConfig { crash_prob: 1.0, ..FaultConfig::disabled() });
        let out = characterize_cell_with(
            &llama2_13b(),
            &GpuProfile::new(a100_40(), 1),
            &s,
            &quick_config(),
            &CellRun { plan, ..CellRun::default() },
        );
        match out {
            CellOutcome::Failed { error, attempts } => {
                assert!(matches!(error, llmpilot_sim::error::SimError::EngineCrashed { .. }));
                assert_eq!(attempts, 1);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_step_budget_is_failed() {
        let s = sampler();
        let out = characterize_cell_with(
            &llama2_13b(),
            &GpuProfile::new(a100_40(), 1),
            &s,
            &quick_config(),
            &CellRun { max_steps: Some(10), ..CellRun::default() },
        );
        match out {
            CellOutcome::Failed { error, .. } => {
                assert!(matches!(error, llmpilot_sim::error::SimError::BudgetExhausted { .. }));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn faulty_cell_with_none_plan_matches_plain_cell() {
        let s = sampler();
        let llm = llama2_13b();
        let profile = GpuProfile::new(a100_40(), 1);
        let plain = characterize_cell(&llm, &profile, &s, &quick_config());
        let faulty =
            characterize_cell_with(&llm, &profile, &s, &quick_config(), &CellRun::default());
        assert_eq!(plain, faulty);
        // And a later attempt number changes nothing without faults — the
        // measurement seed is attempt-independent.
        let retry = characterize_cell_with(
            &llm,
            &profile,
            &s,
            &quick_config(),
            &CellRun { attempt: 3, ..CellRun::default() },
        );
        assert_eq!(plain, retry);
        // Tracing and tail histograms observe without perturbing the rows.
        let observed = characterize_cell_with(
            &llm,
            &profile,
            &s,
            &quick_config(),
            &CellRun {
                recorder: Recorder::enabled(),
                hists: Some(CellHists::default()),
                ..CellRun::default()
            },
        );
        assert_eq!(plain, observed);
    }

    #[test]
    fn sweep_collects_feasible_grid() {
        let s = sampler();
        let llms = vec![flan_t5_xl(), llama2_7b()];
        let profiles = vec![GpuProfile::new(t4(), 1), GpuProfile::new(a100_40(), 1)];
        let ds = characterize(&llms, &profiles, &s, &quick_config());
        // flan-t5-xl fits both; llama-2-7b does not fit 1xT4.
        assert!(ds.cell_feasible("google/flan-t5-xl", "1xT4-16GB"));
        assert!(ds.cell_feasible("google/flan-t5-xl", "1xA100-40GB"));
        assert!(ds.cell_feasible("Llama-2-7b", "1xA100-40GB"));
        assert!(!ds.cell_feasible("Llama-2-7b", "1xT4-16GB"));
        assert_eq!(ds.len(), 3 * 3);
        assert_eq!(ds.tuned_weights.len(), 3);
    }

    #[test]
    fn characterization_is_deterministic() {
        let s = sampler();
        let llms = vec![llama2_7b()];
        let profiles = vec![GpuProfile::new(a100_40(), 1)];
        let a = characterize(&llms, &profiles, &s, &quick_config());
        let b = characterize(&llms, &profiles, &s, &quick_config());
        assert_eq!(a, b);
    }

    #[test]
    fn overhead_estimate_matches_paper_magnitude() {
        // The paper estimates ~8h for 10 LLMs (30 min tuning + ~20 min load
        // testing per LLM, parallelized over GPUs).
        let hours = estimate_real_overhead_hours(10, 8, 120.0, 30.0);
        assert!(hours > 6.0 && hours < 11.0, "hours = {hours}");
    }

    #[test]
    fn cell_seeds_differ_by_identity() {
        let a = cell_seed(1, "m", "p", 1);
        let b = cell_seed(1, "m", "p", 2);
        let c = cell_seed(1, "m", "q", 1);
        let d = cell_seed(2, "m", "p", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
