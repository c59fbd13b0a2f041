//! Closed-loop load testing of one inference-service pod (Sec. III-C-3).
//!
//! Each load-testing experiment simulates a number of concurrent users
//! simultaneously sending requests produced by a [`RequestSource`]: every
//! user keeps exactly one request in flight and submits the next one the
//! moment the previous completes. The tester logs all generated tokens and
//! their (virtual) arrival timestamps and extracts the paper's four
//! performance metrics: TTFT, normalized TTFT, inter-token latency and
//! throughput — all medians/totals over a fixed-duration window.

use std::collections::HashMap;

use llmpilot_obs::hist::Histogram;

use crate::engine::{Engine, RequestId};
use crate::error::SimError;
use crate::fault::LoadFaults;
use crate::memory::MemoryModel;
use crate::request::{RequestSource, RequestSpec};

/// Parameters of one load-testing experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTestConfig {
    /// Experiment duration in virtual seconds (the paper uses 2 minutes).
    pub duration_s: f64,
    /// Warm-up period in virtual seconds: metrics only count requests
    /// submitted after it (and tokens emitted after it), removing the
    /// cold-start bias of steady-state measurements. The paper's 2-minute
    /// protocol uses no warm-up; longer steady-state studies (e.g. the
    /// Fig. 1 batch-weight sweep) do.
    pub warmup_s: f64,
    /// Number of concurrent users.
    pub concurrent_users: u32,
}

impl Default for LoadTestConfig {
    fn default() -> Self {
        Self { duration_s: 120.0, warmup_s: 0.0, concurrent_users: 1 }
    }
}

/// The performance metrics extracted from one load-testing experiment
/// (Sec. III-C-3).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadMetrics {
    /// Number of concurrent users simulated.
    pub concurrent_users: u32,
    /// Median time to first token, seconds (queueing + prompt processing).
    pub ttft_median_s: f64,
    /// Median of per-request TTFT divided by the request's input tokens,
    /// seconds per input token.
    pub nttft_median_s: f64,
    /// Median latency between subsequent output tokens (excluding the first
    /// token), seconds.
    pub itl_median_s: f64,
    /// Total output tokens generated divided by the experiment duration,
    /// tokens per second.
    pub throughput_tokens_per_s: f64,
    /// Median end-to-end latency of completed requests, seconds (Fig. 1).
    pub e2e_median_s: f64,
    /// 90th-percentile TTFT, seconds (tail behaviour under queueing).
    pub ttft_p90_s: f64,
    /// 99th-percentile TTFT, seconds.
    pub ttft_p99_s: f64,
    /// 90th-percentile inter-token latency, seconds.
    pub itl_p90_s: f64,
    /// 99th-percentile inter-token latency, seconds.
    pub itl_p99_s: f64,
    /// Number of requests that completed within the window.
    pub completed_requests: u64,
    /// Total output tokens generated within the window.
    pub total_tokens: u64,
}

/// Percentile `q ∈ [0, 1]` of a sample (nearest-rank on the sorted data);
/// `NaN` when empty. Sorts in place.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile out of range");
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let idx = ((values.len() - 1) as f64 * q).round() as usize;
    values[idx]
}

/// Median of a sample; `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Clamp a sampled request so the engine can admit it: sequence-length caps
/// from the memory model, then batch-size reduction until the weight fits
/// under the engine's maximum batch weight.
pub fn fit_request(mem: &MemoryModel, max_batch_weight: u64, spec: RequestSpec) -> RequestSpec {
    let (input, output) = mem.cap_request(spec.input_tokens, spec.output_tokens);
    let per_seq = u64::from(input) + u64::from(output);
    let max_batch = (max_batch_weight / per_seq).max(1).min(u64::from(spec.batch_size.max(1)));
    RequestSpec { input_tokens: input, output_tokens: output, batch_size: max_batch as u32 }
}

/// Optional per-sample sinks for a load test: every individual normalized
/// TTFT and inter-token gap that contributes to [`LoadMetrics`] is also
/// recorded here (virtual seconds → nanoseconds), giving true tail
/// quantiles instead of only the fixed percentiles the metrics expose.
#[derive(Debug, Default)]
pub struct SampleHists {
    /// Normalized TTFT (TTFT / input tokens) per tracked request.
    pub nttft: Histogram,
    /// Inter-token latency per emitted token gap.
    pub itl: Histogram,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    user: u32,
    submitted_at: f64,
    input_tokens: u32,
    first_token_at: Option<f64>,
    last_token_at: Option<f64>,
}

/// Run one closed-loop load-testing experiment against a fresh engine.
///
/// The engine's clock must start at 0; the experiment runs until the clock
/// passes `config.duration_s`.
pub fn run_load_test<S: RequestSource + ?Sized>(
    engine: &mut Engine,
    mem: &MemoryModel,
    source: &mut S,
    config: &LoadTestConfig,
) -> Result<LoadMetrics, SimError> {
    run_load_test_with(engine, mem, source, config, &mut LoadFaults::none(), None)
}

/// [`run_load_test`] with fault injection and optional per-sample
/// observation. After every engine iteration the [`LoadFaults`] state is
/// consulted for a scheduled crash, a near-capacity OOM, or an exceeded
/// step budget, any of which aborts the experiment with the corresponding
/// [`SimError`]. When `hists` is given, every normalized-TTFT and
/// inter-token-latency sample (including censored TTFT lower bounds) is
/// also recorded into the histograms. With [`LoadFaults::none`] and no
/// `hists` the behaviour (and the produced metrics) are bit-identical to
/// [`run_load_test`]; observation never changes the returned metrics.
pub fn run_load_test_with<S: RequestSource + ?Sized>(
    engine: &mut Engine,
    mem: &MemoryModel,
    source: &mut S,
    config: &LoadTestConfig,
    faults: &mut LoadFaults,
    hists: Option<&SampleHists>,
) -> Result<LoadMetrics, SimError> {
    let users = config.concurrent_users;
    assert!(users >= 1, "load test needs at least one user");

    let mut in_flight: HashMap<RequestId, InFlight> = HashMap::new();
    let mut ttfts: Vec<f64> = Vec::new();
    let mut nttfts: Vec<f64> = Vec::new();
    let mut gaps: Vec<f64> = Vec::new();
    let mut e2es: Vec<f64> = Vec::new();
    let mut completed: u64 = 0;
    let mut total_tokens: u64 = 0;

    // All users fire their first request at t = 0.
    for user in 0..users {
        let spec = fit_request(mem, engine.max_batch_weight(), source.next_request());
        let id = engine.submit(spec)?;
        in_flight.insert(
            id,
            InFlight {
                user,
                submitted_at: engine.clock(),
                input_tokens: spec.input_tokens,
                first_token_at: None,
                last_token_at: None,
            },
        );
    }

    let warmup = config.warmup_s;
    while engine.clock() < config.duration_s && engine.has_work() {
        let step = engine.step();
        faults.check_step(engine.clock(), engine.running_weight(), engine.max_batch_weight())?;
        for em in &step.emissions {
            if em.time >= warmup {
                total_tokens += u64::from(em.count);
            }
            let fl = in_flight.get_mut(&em.id).expect("emission for known request");
            if em.is_first {
                if fl.submitted_at >= warmup {
                    let ttft = em.time - fl.submitted_at;
                    ttfts.push(ttft);
                    nttfts.push(ttft / fl.input_tokens as f64);
                    if let Some(h) = hists {
                        h.nttft.record_secs(ttft / fl.input_tokens as f64);
                    }
                }
                fl.first_token_at = Some(em.time);
            } else if let Some(prev) = fl.last_token_at {
                if em.time >= warmup {
                    gaps.push(em.time - prev);
                    if let Some(h) = hists {
                        h.itl.record_secs(em.time - prev);
                    }
                }
            }
            fl.last_token_at = Some(em.time);
        }
        for c in &step.completions {
            let fl = in_flight.remove(&c.id).expect("completion for known request");
            if fl.submitted_at >= warmup {
                e2es.push(c.time - fl.submitted_at);
                completed += 1;
            }
            // Closed loop: the user immediately submits the next request.
            if engine.clock() < config.duration_s {
                let spec = fit_request(mem, engine.max_batch_weight(), source.next_request());
                let id = engine.submit(spec)?;
                in_flight.insert(
                    id,
                    InFlight {
                        user: fl.user,
                        submitted_at: engine.clock(),
                        input_tokens: spec.input_tokens,
                        first_token_at: None,
                        last_token_at: None,
                    },
                );
            }
        }
    }

    // Censored observations: requests that never received their first token
    // within the window still witnessed at least (now − submit) of queueing.
    // Counting these lower bounds keeps the TTFT median defined (and large,
    // as it should be) in deeply saturated regimes where no tracked request
    // is served before the window closes.
    for fl in in_flight.values() {
        if fl.first_token_at.is_none() && fl.submitted_at >= warmup {
            let waited = engine.clock() - fl.submitted_at;
            if waited > 0.0 {
                ttfts.push(waited);
                nttfts.push(waited / fl.input_tokens as f64);
                if let Some(h) = hists {
                    h.nttft.record_secs(waited / fl.input_tokens as f64);
                }
            }
        }
    }

    let elapsed = (engine.clock() - warmup).max(f64::EPSILON);
    Ok(LoadMetrics {
        concurrent_users: users,
        ttft_median_s: median(&mut ttfts),
        nttft_median_s: median(&mut nttfts),
        itl_median_s: median(&mut gaps),
        throughput_tokens_per_s: total_tokens as f64 / elapsed,
        e2e_median_s: median(&mut e2es),
        ttft_p90_s: percentile(&mut ttfts, 0.90),
        ttft_p99_s: percentile(&mut ttfts, 0.99),
        itl_p90_s: percentile(&mut gaps, 0.90),
        itl_p99_s: percentile(&mut gaps, 0.99),
        completed_requests: completed,
        total_tokens,
    })
}

/// The paper's default load-testing sweep: exponentially increasing numbers
/// of concurrent users, 1, 2, 4, …, 128 (Sec. III-C-3).
pub fn default_user_sweep() -> Vec<u32> {
    (0..8).map(|i| 1u32 << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{a100_80, t4, GpuProfile, GpuSpec};
    use crate::llm::{llama2_13b, LlmSpec};
    use crate::memory::{MemoryConfig, MemoryModel};
    use crate::perf_model::{PerfModel, PerfModelConfig};
    use crate::request::FixedSource;
    use crate::tuner::tune_max_batch_weight;

    fn setup(llm: LlmSpec, gpu: GpuSpec, count: u32) -> (Engine, MemoryModel) {
        let profile = GpuProfile::new(gpu, count);
        let mem = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default());
        let weight = tune_max_batch_weight(&mem).unwrap().max_batch_weight;
        let perf = PerfModel::new(llm, profile, PerfModelConfig::default());
        (Engine::new(perf, weight), mem)
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn single_user_metrics_are_sane() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(500, 200));
        let m = run_load_test(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 1 },
        )
        .unwrap();
        assert!(m.completed_requests > 0);
        assert!(m.ttft_median_s > 0.0);
        assert!(m.itl_median_s > 0.0);
        assert!(m.throughput_tokens_per_s > 0.0);
        // One user's throughput is roughly 1 / ITL at steady state.
        let approx = 1.0 / m.itl_median_s;
        assert!(m.throughput_tokens_per_s < approx * 1.2);
        assert!(m.throughput_tokens_per_s > approx * 0.3);
    }

    #[test]
    fn table1_single_pod_magnitude() {
        // Table I: Llama-2-13b on 1xA100-80 serves ~47 tok/s at 1 user and
        // saturates around 300 tok/s. We assert the same order of magnitude.
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::new(vec![
            RequestSpec::new(400, 150),
            RequestSpec::new(900, 300),
            RequestSpec::new(150, 60),
        ]);
        let m1 = run_load_test(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 120.0, concurrent_users: 1 },
        )
        .unwrap();
        assert!(
            m1.throughput_tokens_per_s > 20.0 && m1.throughput_tokens_per_s < 90.0,
            "tput = {}",
            m1.throughput_tokens_per_s
        );
    }

    #[test]
    fn throughput_grows_then_saturates_with_users() {
        let mk = || {
            FixedSource::new(vec![
                RequestSpec::new(400, 150),
                RequestSpec::new(900, 300),
                RequestSpec::new(150, 60),
            ])
        };
        let mut tputs = Vec::new();
        for users in [1u32, 4, 16, 64, 128] {
            let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
            let mut src = mk();
            let m = run_load_test(
                &mut e,
                &mem,
                &mut src,
                &LoadTestConfig { duration_s: 120.0, warmup_s: 0.0, concurrent_users: users },
            )
            .unwrap();
            tputs.push(m.throughput_tokens_per_s);
        }
        // Monotone-ish growth at the start…
        assert!(tputs[1] > tputs[0] * 1.5);
        assert!(tputs[2] > tputs[1] * 1.2);
        // …and saturation at the end (within 30%).
        let last = tputs[tputs.len() - 1];
        let prev = tputs[tputs.len() - 2];
        assert!((last - prev).abs() / prev < 0.5, "tputs = {tputs:?}");
    }

    #[test]
    fn ttft_rises_with_users() {
        let mk = || FixedSource::constant(RequestSpec::new(500, 150));
        let run = |users| {
            let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
            let mut src = mk();
            run_load_test(
                &mut e,
                &mem,
                &mut src,
                &LoadTestConfig { duration_s: 120.0, warmup_s: 0.0, concurrent_users: users },
            )
            .unwrap()
        };
        let low = run(1);
        let high = run(64);
        assert!(high.ttft_median_s > low.ttft_median_s);
        assert!(high.itl_median_s >= low.itl_median_s * 0.9);
    }

    #[test]
    fn weak_gpu_saturates_much_earlier() {
        // A 1xT4 running a 7B model must saturate at a small number of users,
        // with TTFT exploding from queueing.
        let run = |users| {
            let (mut e, mem) = setup(crate::llm::llama2_7b(), t4(), 2);
            let mut src = FixedSource::constant(RequestSpec::new(500, 150));
            run_load_test(
                &mut e,
                &mem,
                &mut src,
                &LoadTestConfig { duration_s: 120.0, warmup_s: 0.0, concurrent_users: users },
            )
            .unwrap()
        };
        let m8 = run(8);
        let m128 = run(128);
        assert!(m128.ttft_median_s > 4.0 * m8.ttft_median_s);
    }

    #[test]
    fn fit_request_respects_weight_and_caps() {
        let profile = GpuProfile::new(a100_80(), 1);
        let mem = MemoryModel::new(llama2_13b(), profile, MemoryConfig::default());
        let fitted = fit_request(&mem, 1000, RequestSpec::batched(400, 300, 5));
        assert!(fitted.weight() <= 1000);
        assert_eq!(fitted.batch_size, 1);
        // Sequence cap of llama (4096) applies.
        let fitted = fit_request(&mem, 100_000, RequestSpec::new(9000, 2000));
        assert!(fitted.input_tokens + fitted.output_tokens <= 4096);
    }

    #[test]
    fn nttft_is_ttft_scaled_by_input() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(1000, 50));
        let m = run_load_test(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 30.0, concurrent_users: 1 },
        )
        .unwrap();
        assert!((m.nttft_median_s - m.ttft_median_s / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn default_sweep_is_exponential_to_128() {
        assert_eq!(default_user_sweep(), vec![1, 2, 4, 8, 16, 32, 64, 128]);
    }

    #[test]
    fn none_faults_reproduce_plain_run_bit_for_bit() {
        let config = LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 4 };
        let (mut e1, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut s1 = FixedSource::constant(RequestSpec::new(500, 200));
        let plain = run_load_test(&mut e1, &mem, &mut s1, &config).unwrap();
        let (mut e2, _) = setup(llama2_13b(), a100_80(), 1);
        let mut s2 = FixedSource::constant(RequestSpec::new(500, 200));
        let mut faults = crate::fault::LoadFaults::none();
        let faulty =
            run_load_test_with(&mut e2, &mem, &mut s2, &config, &mut faults, None).unwrap();
        assert_eq!(plain, faulty);
        assert!(faults.steps_used > 0);
    }

    #[test]
    fn observed_run_matches_plain_and_fills_histograms() {
        let config = LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 4 };
        let (mut e1, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut s1 = FixedSource::constant(RequestSpec::new(500, 200));
        let plain = run_load_test(&mut e1, &mem, &mut s1, &config).unwrap();
        let (mut e2, _) = setup(llama2_13b(), a100_80(), 1);
        let mut s2 = FixedSource::constant(RequestSpec::new(500, 200));
        let hists = SampleHists::default();
        let mut faults = crate::fault::LoadFaults::none();
        let observed =
            run_load_test_with(&mut e2, &mem, &mut s2, &config, &mut faults, Some(&hists)).unwrap();
        assert_eq!(plain, observed, "observation must not change the metrics");
        assert!(hists.nttft.count() > 0);
        assert!(hists.itl.count() > 0);
        // The histogram median agrees with the sorted-vector median to
        // within the ≤1% quantile resolution.
        let h_median = hists.itl.quantile(0.5) as f64 / 1e9;
        let err = (h_median - observed.itl_median_s).abs() / observed.itl_median_s;
        assert!(err < 0.02, "hist median {h_median} vs exact {}", observed.itl_median_s);
    }

    #[test]
    fn scheduled_crash_aborts_the_test() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(500, 200));
        let mut faults = crate::fault::LoadFaults::none();
        faults.crash_at = Some(10.0);
        let err = run_load_test_with(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 4 },
            &mut faults,
            None,
        )
        .unwrap_err();
        assert_eq!(err, SimError::EngineCrashed { at_s: 10.0 });
    }

    #[test]
    fn step_budget_aborts_instead_of_hanging() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(500, 200));
        let mut faults = crate::fault::LoadFaults::none();
        faults.max_steps = Some(5);
        let err = run_load_test_with(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 600.0, concurrent_users: 8 },
            &mut faults,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BudgetExhausted { .. }));
        assert_eq!(faults.steps_used, 6);
    }

    #[test]
    fn near_capacity_oom_aborts_saturated_tests() {
        use crate::fault::{FaultConfig, FaultPlan};
        // 64 users saturate the batch, keeping the running weight near the
        // maximum batch weight — a certain-OOM plan must fire.
        let plan = FaultPlan::new(FaultConfig {
            oom_prob: 1.0,
            oom_margin: 0.8,
            ..FaultConfig::disabled()
        });
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(500, 200));
        let mut faults = plan.load_faults("load/x", 60.0);
        let err = run_load_test_with(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 64 },
            &mut faults,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }
}

#[cfg(test)]
mod percentile_tests {
    use super::*;
    use crate::gpu::{a100_80, GpuProfile};
    use crate::llm::llama2_13b;
    use crate::memory::{MemoryConfig, MemoryModel};
    use crate::perf_model::{PerfModel, PerfModelConfig};
    use crate::request::{FixedSource, RequestSpec};
    use crate::tuner::tune_max_batch_weight;

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.5), 51.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert!(percentile(&mut [], 0.5).is_nan());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_bad_q() {
        let _ = percentile(&mut [1.0], 1.5);
    }

    #[test]
    fn tail_latencies_dominate_medians() {
        let llm = llama2_13b();
        let profile = GpuProfile::new(a100_80(), 1);
        let mem = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default());
        let weight = tune_max_batch_weight(&mem).unwrap().max_batch_weight;
        let perf = PerfModel::new(llm, profile, PerfModelConfig::default());
        let mut engine = Engine::new(perf, weight);
        let mut src =
            FixedSource::new(vec![RequestSpec::new(200, 80), RequestSpec::new(1500, 400)]);
        let m = run_load_test(
            &mut engine,
            &mem,
            &mut src,
            &LoadTestConfig { duration_s: 90.0, warmup_s: 0.0, concurrent_users: 32 },
        )
        .unwrap();
        assert!(m.ttft_p90_s >= m.ttft_median_s);
        assert!(m.ttft_p99_s >= m.ttft_p90_s);
        assert!(m.itl_p90_s >= m.itl_median_s);
        assert!(m.itl_p99_s >= m.itl_p90_s);
    }
}
