//! Recommendation quality of a dataset as the online path sees it: the
//! serving model trained on every row recommends for each LLM at several
//! total loads and SLAs, and each answer is judged against the LLM's
//! measured performance with the evaluation module's success/overspend
//! definitions (Eqs. 5–7). Pooling 7 loads × 3 SLAs around the paper's
//! setting (210 judgments instead of its 10 at U = 200, 100/50 ms) keeps
//! the score from swinging with which dataset a seed drew.

use llmpilot_core::evaluate::{oracle_recommendation, so_score, true_u_max};
use llmpilot_core::{
    CharacterizationDataset, LatencyConstraints, RecommendationRequest, ServingModel,
};
use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::llm_by_name;
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};

/// Profiles of `model` that `llm` fits on (memory feasibility only).
pub fn feasible_profiles(llm: &str, profiles: &[GpuProfile]) -> Vec<GpuProfile> {
    let Some(spec) = llm_by_name(llm) else { return Vec::new() };
    profiles
        .iter()
        .filter(|p| {
            MemoryModel::new(spec.clone(), (*p).clone(), MemoryConfig::default())
                .feasibility()
                .is_feasible()
        })
        .cloned()
        .collect()
}

/// Total loads (users) the score pools over.
const LOADS: [u32; 7] = [25, 50, 100, 200, 400, 800, 1600];
/// SLAs `(nTTFT, ITL)` in seconds the score pools over: the paper's, half
/// and double.
const SLAS: [(f64, f64); 3] = [(0.05, 0.025), (0.1, 0.05), (0.2, 0.1)];

/// Pooled S/O score of `model`'s recommendations for every LLM of
/// `dataset` at every load of [`LOADS`] and SLA of [`SLAS`], judged
/// against `dataset`'s measurements.
pub fn in_sample_so_score(dataset: &CharacterizationDataset, model: &ServingModel) -> f64 {
    let llms = dataset.llms();
    let mut judged = 0usize;
    let mut successes = 0usize;
    let mut spends = Vec::new();
    for llm in &llms {
        let candidates = feasible_profiles(llm, model.profiles());
        for ((nttft_s, itl_s), users) in SLAS.iter().flat_map(|s| LOADS.map(|u| (*s, u))) {
            let request = RecommendationRequest {
                total_users: users,
                constraints: LatencyConstraints { nttft_s, itl_s },
                ..RecommendationRequest::paper_defaults()
            };
            judged += 1;
            let Ok(rec) = model.recommend(llm, &request) else { continue };
            let success = true_u_max(dataset, llm, &rec.profile, &request.constraints)
                .is_some_and(|u| u64::from(rec.pods) * u64::from(u) >= u64::from(users));
            if !success {
                continue;
            }
            successes += 1;
            if let Ok(oracle) = oracle_recommendation(dataset, llm, &candidates, &request) {
                spends.push((rec.cost_per_hour - oracle.cost_per_hour) / oracle.cost_per_hour);
            }
        }
    }
    let success_rate = successes as f64 / judged.max(1) as f64;
    let mean_overspend =
        if spends.is_empty() { f64::NAN } else { spends.iter().sum::<f64>() / spends.len() as f64 };
    so_score(success_rate, mean_overspend)
}
