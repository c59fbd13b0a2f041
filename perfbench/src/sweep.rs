//! Workload `sweep`: the `llm-pilot characterize` path — the full grid of
//! 10 catalog LLMs × 14 paper profiles through `SweepDriver`, users
//! 1..128, 120 virtual seconds per load test, no faults.
//!
//! The untraced run repeats `SweepDriver::run` for the measurement window
//! and times every load test (`run_load_test`, set up as
//! `characterize_cell` sets it up) for the per-operation latency. The
//! traced run decomposes the same work from outside, one layer per pass:
//! cells (`core::characterize`), batch-weight tuning (`sim::tuner`), load
//! tests (`sim::load`), and a replay of every load test that drives
//! `Engine::submit`/`Engine::step` itself to time the engine alone.
//!
//! The untraced run reads the process's CPU clock (see `clock`) and
//! scales its figures to the reference speed (see `calibrate`); the
//! traced run reads the wall clock, because the engine replay times every
//! sub-microsecond step and the layers it reconciles must share a clock.

use std::collections::BTreeMap;
use std::time::Instant;

use llmpilot_core::characterize::{characterize_cell, CellOutcome, WorkloadRequestSource};
use llmpilot_core::{online_predictor_config, CharacterizeConfig, LatencyConstraints, PerfRow};
use llmpilot_core::{CharacterizationDataset, ServingModel};
use llmpilot_sim::engine::Engine;
use llmpilot_sim::gpu::{paper_profiles, GpuProfile};
use llmpilot_sim::llm::{llm_catalog, LlmSpec};
use llmpilot_sim::load::{fit_request, run_load_test, LoadMetrics, LoadTestConfig};
use llmpilot_sim::memory::MemoryModel;
use llmpilot_sim::perf_model::PerfModel;
use llmpilot_sim::request::RequestSource;
use llmpilot_sim::tuner::tune_max_batch_weight;
use llmpilot_workload::WorkloadSampler;

use crate::calibrate::{self, Calibration};
use crate::clock::{self, Clock};
use crate::report::{print_layer_table, LayerRow, Outcome};
use crate::stats::{median, percentile};
use crate::{digest, proc, quality, setup, RunArgs};

/// Fewest rounds of (driver run, load pass) in the untraced run, however
/// short the window. Rounds repeat until the window is spent, and each
/// figure is a median over the rounds, so a stretch of the run where the
/// shared machine was slow sets none of them.
const MIN_ROUNDS: usize = 3;

/// How many cells of the catalog grid are measurable, and how many not.
const MEASURED_CELLS: usize = 68;
const INFEASIBLE_CELLS: usize = 72;

fn grid() -> Vec<(LlmSpec, GpuProfile)> {
    let profiles = paper_profiles();
    llm_catalog()
        .into_iter()
        .flat_map(|m| profiles.iter().map(move |p| (m.clone(), p.clone())))
        .collect()
}

/// Per-cell load-test seed, as `core::characterize` derives it (FNV-1a
/// over the cell identity). The engine replay checks it reproduces the
/// load tests' token and request counts exactly.
fn cell_seed(base: u64, llm: &str, profile: &str, users: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    for b in llm.bytes().chain(profile.bytes()).chain(users.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Checks every sweep output must pass: the grid's cell counts, a valid
/// dataset with finite values.
fn check_dataset(
    out: &mut Outcome,
    ds: &CharacterizationDataset,
    measured: usize,
    infeasible: usize,
    failed: usize,
) {
    out.check(
        measured == MEASURED_CELLS,
        format!("{measured} measured cells, expected {MEASURED_CELLS}"),
    );
    out.check(
        infeasible == INFEASIBLE_CELLS,
        format!("{infeasible} infeasible cells, expected {INFEASIBLE_CELLS}"),
    );
    out.check(failed == 0, format!("{failed} failed cells"));
    out.check(ds.validate().is_ok(), "dataset validates");
    out.check(!ds.is_empty(), "dataset has rows");
    let finite = ds
        .rows
        .iter()
        .all(|r| [r.ttft_s, r.nttft_s, r.itl_s, r.throughput].iter().all(|v| v.is_finite()));
    out.check(finite, "all dataset values are finite");
}

/// One pass of `characterize_cell` over the grid: per-cell wall times
/// (seconds) and the rows of every measured cell.
struct CellPass {
    seconds: Vec<f64>,
    measured_ms: Vec<f64>,
    /// `(llm, profile) → max batch weight` of every measured cell.
    weights: BTreeMap<(String, String), u64>,
    /// Rows of every measured cell, in grid order.
    rows: Vec<PerfRow>,
    failed: usize,
}

fn cell_pass(sampler: &WorkloadSampler, config: &CharacterizeConfig) -> CellPass {
    let mut pass = CellPass {
        seconds: Vec::new(),
        measured_ms: Vec::new(),
        weights: BTreeMap::new(),
        rows: Vec::new(),
        failed: 0,
    };
    for (llm, profile) in grid() {
        let t = Instant::now();
        let outcome = characterize_cell(&llm, &profile, sampler, config);
        let s = t.elapsed().as_secs_f64();
        pass.seconds.push(s);
        match outcome {
            CellOutcome::Measured { max_batch_weight, rows } => {
                pass.measured_ms.push(s * 1e3);
                pass.weights.insert((llm.name.to_string(), profile.name()), max_batch_weight);
                pass.rows.extend(rows);
            }
            CellOutcome::Infeasible(_) => {}
            CellOutcome::Failed { .. } => pass.failed += 1,
        }
    }
    pass
}

/// Whether a cell pass produced exactly the driver's dataset.
fn same_rows(pass: &CellPass, ds: &CharacterizationDataset) -> bool {
    pass.rows == ds.rows && pass.weights == ds.tuned_weights
}

/// One load test of a [`LoadPass`].
struct LoadTest {
    llm: LlmSpec,
    profile: GpuProfile,
    mem: MemoryModel,
    max_batch_weight: u64,
    users: u32,
    metrics: LoadMetrics,
    ms: f64,
}

/// A cell's two phases timed apart on `clock`, over the grid:
/// `tune_max_batch_weight` then `run_load_test` per user count, set up
/// exactly as `characterize_cell` sets them up.
#[derive(Default)]
struct LoadPass {
    tune_s: f64,
    probes: u64,
    load_s: f64,
    tests: Vec<LoadTest>,
    failures: Vec<String>,
}

fn load_pass(sampler: &WorkloadSampler, config: &CharacterizeConfig, clock: Clock) -> LoadPass {
    let mut pass = LoadPass::default();
    for (llm, profile) in grid() {
        let mem = MemoryModel::new(llm.clone(), profile.clone(), config.mem_config.clone());
        if !mem.feasibility().is_feasible() {
            continue;
        }
        let t = clock.start();
        let tuned = tune_max_batch_weight(&mem);
        pass.tune_s += t.elapsed_s();
        let Ok(tuned) = tuned else { continue };
        pass.probes += tuned.probes_evaluated;
        for &users in &config.user_sweep {
            let perf = PerfModel::new(llm.clone(), profile.clone(), config.perf_config.clone());
            let mut engine = Engine::new(perf, tuned.max_batch_weight);
            let mut source = WorkloadRequestSource::new(
                sampler.clone(),
                cell_seed(config.seed, llm.name, &profile.name(), users),
            );
            let load = LoadTestConfig {
                duration_s: config.duration_s,
                warmup_s: config.warmup_s,
                concurrent_users: users,
            };
            let t = clock.start();
            let metrics = run_load_test(&mut engine, &mem, &mut source, &load);
            let s = t.elapsed_s();
            pass.load_s += s;
            match metrics {
                Ok(metrics) => pass.tests.push(LoadTest {
                    llm: llm.clone(),
                    profile: profile.clone(),
                    mem: mem.clone(),
                    max_batch_weight: tuned.max_batch_weight,
                    users,
                    metrics,
                    ms: s * 1e3,
                }),
                Err(e) => {
                    pass.failures.push(format!("{} {} u{users}: {e}", llm.name, profile.name()))
                }
            }
        }
    }
    pass
}

/// Whether a load pass yields exactly the driver's dataset: the rows
/// `characterize_cell` builds from each load test's medians (dropping
/// non-finite windows) and each cell's tuned weight.
fn same_rows_from_tests(pass: &LoadPass, ds: &CharacterizationDataset) -> bool {
    let mut weights = BTreeMap::new();
    let mut rows = Vec::new();
    for t in &pass.tests {
        weights.insert((t.llm.name.to_string(), t.profile.name()), t.max_batch_weight);
        let m = &t.metrics;
        if [m.ttft_median_s, m.nttft_median_s, m.itl_median_s, m.throughput_tokens_per_s]
            .iter()
            .all(|v| v.is_finite())
        {
            rows.push(PerfRow {
                llm: t.llm.name.to_string(),
                profile: t.profile.name(),
                users: t.users,
                ttft_s: m.ttft_median_s,
                nttft_s: m.nttft_median_s,
                itl_s: m.itl_median_s,
                throughput: m.throughput_tokens_per_s,
            });
        }
    }
    rows == ds.rows && weights == ds.tuned_weights
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let config = CharacterizeConfig::default();

    let mut cal = Calibration::default();
    let mut setup_s = Vec::new();
    let mut sampler = None;
    for _ in 0..setup::SETUPS {
        cal.sample(calibrate::SAMPLES);
        let t = clock::cpu();
        sampler = Some(setup::sampler(args.seed).sampler);
        setup_s.push(t.elapsed_s());
    }
    let sampler = sampler.expect("set-ups ran");

    // Timed phase: rounds of (driver run, load pass) while another one
    // fits in the window, with calibration samples between the parts. The
    // window is wall time; every figure is CPU time.
    let window = Instant::now();
    let mut cpus = Vec::new();
    let mut csvs: Vec<String> = Vec::new();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let ds = loop {
        let round = Instant::now();
        let t = clock::cpu();
        let (ds, report) = setup::sweep(&sampler, &config);
        cpus.push(t.elapsed_s());
        cal.sample(calibrate::SAMPLES);
        check_dataset(&mut out, &ds, report.measured(), report.infeasible(), report.failed());
        out.attempted += report.cells.len() as u64;
        out.failed += report.failed() as u64;
        csvs.push(ds.to_csv());
        let pass = load_pass(&sampler, &config, Clock::ProcessCpu);
        out.check(
            same_rows_from_tests(&pass, &ds),
            "tuner + load tests reproduce the driver's rows",
        );
        out.attempted += (pass.tests.len() + pass.failures.len()) as u64;
        out.failed += pass.failures.len() as u64;
        passes.push(pass.tests.iter().map(|t| t.ms).collect());
        cal.sample(calibrate::SAMPLES);
        let spent = window.elapsed().as_secs_f64();
        if cpus.len() >= MIN_ROUNDS && spent + round.elapsed().as_secs_f64() > args.seconds {
            break ds;
        }
    };
    out.check(
        csvs.iter().all(|c| *c == csvs[0]),
        "every sweep repetition writes identical CSV bytes",
    );
    let test_ms: Vec<f64> = (0..passes[0].len())
        .filter_map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();

    let model =
        ServingModel::train(&ds, &LatencyConstraints::paper_defaults(), &online_predictor_config());
    let so = model.map(|m| quality::in_sample_so_score(&ds, &m)).unwrap_or(f64::NAN);
    out.check(so.is_finite(), "S/O score is finite");

    let (setup_raw, cpu) =
        (median(&setup_s).unwrap_or(f64::NAN), median(&cpus).unwrap_or(f64::NAN));
    let (p50, p99) = (
        percentile(&test_ms, 0.50).unwrap_or(f64::NAN),
        percentile(&test_ms, 0.99).unwrap_or(f64::NAN),
    );
    println!(
        "sweep: {} rows over {} measured cells; SweepDriver::run CPU times {cpus:?} s; \
         p50/p99 over {} load tests (each the median of {} passes)",
        ds.len(),
        ds.tuned_weights.len(),
        test_ms.len(),
        passes.len()
    );
    let scale = cal.report(&mut out);
    println!(
        "  raw CPU: setup_s {setup_raw:.6} s, cpu_s {cpu:.6} s, p50_ms {p50:.6}, p99_ms {p99:.6}"
    );
    println!("digest sweep.csv {}", digest::of(csvs[0].as_bytes()));

    out.metric("setup_s", "s", setup_raw * scale);
    out.metric("cpu_s", "s", cpu * scale);
    out.metric("peak_rss_mb", "MiB", proc::peak_rss_mb("self").unwrap_or(f64::NAN));
    out.metric("ok_share", "ratio", 1.0 - out.failed as f64 / out.attempted.max(1) as f64);
    out.metric("so_score", "score", so);
    out.metric("p50_ms", "ms", p50 * scale);
    out.metric("p99_ms", "ms", p99 * scale);
    out.metric("max_rate_rps", "1/s", MEASURED_CELLS as f64 / (cpu * scale));
    out
}

/// Counts and timings of one engine replay of a load test.
#[derive(Default)]
struct Replay {
    steps: u64,
    tokens: u64,
    completed: u64,
    step_s: f64,
}

/// Drive a fresh engine exactly as `run_load_test` does — all users submit
/// at t = 0, each completion resubmits while the window is open — timing
/// only `Engine::step`. Per-step nanoseconds go to `step_ns`.
fn replay_load_test(
    engine: &mut Engine,
    mem: &MemoryModel,
    source: &mut dyn RequestSource,
    config: &LoadTestConfig,
    step_ns: &mut Vec<u32>,
) -> Replay {
    let mut r = Replay::default();
    for _ in 0..config.concurrent_users {
        let spec = fit_request(mem, engine.max_batch_weight(), source.next_request());
        engine.submit(spec).expect("the load test admitted this request");
    }
    while engine.clock() < config.duration_s && engine.has_work() {
        let t = Instant::now();
        let step = engine.step();
        let dt = t.elapsed();
        r.step_s += dt.as_secs_f64();
        step_ns.push(dt.as_nanos().min(u128::from(u32::MAX)) as u32);
        r.steps += 1;
        for em in &step.emissions {
            if em.time >= config.warmup_s {
                r.tokens += u64::from(em.count);
            }
        }
        for c in &step.completions {
            if c.submitted_at >= config.warmup_s {
                r.completed += 1;
            }
            if engine.clock() < config.duration_s {
                let spec = fit_request(mem, engine.max_batch_weight(), source.next_request());
                engine.submit(spec).expect("the load test admitted this request");
            }
        }
    }
    r
}

/// The traced run: per-layer metrics.
pub fn trace(args: &RunArgs) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let config = CharacterizeConfig::default();
    let s = setup::sampler(args.seed);
    let sampler = s.sampler;

    // The untraced end-to-end run the layers reconcile against.
    let t = Instant::now();
    let (ds, report) = setup::sweep(&sampler, &config);
    let run_s = t.elapsed().as_secs_f64();
    check_dataset(&mut out, &ds, report.measured(), report.infeasible(), report.failed());
    out.attempted = report.cells.len() as u64;
    out.failed = report.failed() as u64;

    let traced = Instant::now();
    // core::characterize: one call per cell.
    let cells = cell_pass(&sampler, &config);
    out.check(same_rows(&cells, &ds), "characterize_cell reproduces the driver's rows");
    out.check(cells.failed == 0, format!("{} cells failed in characterize_cell", cells.failed));
    let cells_s: f64 = cells.seconds.iter().sum();

    // sim::tuner and sim::load: the cell's two phases, timed apart.
    let pass = load_pass(&sampler, &config, Clock::Wall);
    out.check(same_rows_from_tests(&pass, &ds), "tuner + load tests reproduce the driver's rows");
    for failure in &pass.failures {
        out.check(false, format!("load test {failure}"));
    }
    let (tune_s, probes, load_s) = (pass.tune_s, pass.probes, pass.load_s);

    // sim::engine: replay every load test, timing each step.
    let mut step_ns: Vec<u32> = Vec::with_capacity(4_000_000);
    let mut engine_s = 0.0;
    let mut steps = 0u64;
    let mut tokens = 0u64;
    let mut mismatched = 0usize;
    for t in &pass.tests {
        let perf = PerfModel::new(t.llm.clone(), t.profile.clone(), config.perf_config.clone());
        let mut engine = Engine::new(perf, t.max_batch_weight);
        let mut source = WorkloadRequestSource::new(
            sampler.clone(),
            cell_seed(config.seed, t.llm.name, &t.profile.name(), t.users),
        );
        let load = LoadTestConfig {
            duration_s: config.duration_s,
            warmup_s: config.warmup_s,
            concurrent_users: t.users,
        };
        let r = replay_load_test(&mut engine, &t.mem, &mut source, &load, &mut step_ns);
        if r.tokens != t.metrics.total_tokens || r.completed != t.metrics.completed_requests {
            mismatched += 1;
        }
        engine_s += r.step_s;
        steps += r.steps;
        tokens += r.tokens;
    }
    out.check(
        mismatched == 0,
        format!("engine replay differs from run_load_test on {mismatched} load tests"),
    );
    let traced_s = traced.elapsed().as_secs_f64();
    let step_p50 = if step_ns.is_empty() {
        0.0
    } else {
        let mid = step_ns.len() / 2;
        f64::from(*step_ns.select_nth_unstable(mid).1)
    };

    let overhead_s = run_s - cells_s;
    let unaccounted = print_layer_table(
        "sweep (SweepDriver::run)",
        "s",
        run_s,
        &[
            LayerRow { layer: "sim::tuner (tune_max_batch_weight)".into(), time: tune_s },
            LayerRow {
                layer: "sim::load driver (run_load_test - engine)".into(),
                time: load_s - engine_s,
            },
            LayerRow { layer: "sim::engine (Engine::step)".into(), time: engine_s },
            LayerRow { layer: "core::sweep (run - sum of cells)".into(), time: overhead_s },
        ],
    );
    println!(
        "  cells: {} measured, sum {cells_s:.3} s, driver overhead {overhead_s:.4} s; {} load tests, {steps} engine steps",
        cells.measured_ms.len(),
        pass.tests.len()
    );
    println!(
        "  traced passes {traced_s:.3} s vs untraced run {run_s:.3} s: overhead {:.3} s",
        traced_s - run_s
    );

    out.metric("traces.generate_s", "s", s.traces_s);
    out.metric("workload.fit_s", "s", s.fit_s);
    out.metric("sweep.overhead_s", "s", overhead_s);
    out.metric("sweep.unaccounted_share", "ratio", unaccounted);
    out.metric(
        "characterize.cell_ms_p50",
        "ms",
        percentile(&cells.measured_ms, 0.5).unwrap_or(0.0),
    );
    out.metric(
        "characterize.cell_ms_max",
        "ms",
        cells.measured_ms.iter().copied().fold(0.0, f64::max),
    );
    out.metric("tuner.tune_s", "s", tune_s);
    out.metric("tuner.probes", "count", probes as f64);
    out.metric("load.run_s", "s", load_s);
    out.metric("load.tests", "count", pass.tests.len() as f64);
    out.metric("load.driver_s", "s", load_s - engine_s);
    out.metric("engine.step_s", "s", engine_s);
    out.metric("engine.step_ns_p50", "ns", step_p50);
    out.metric("engine.steps", "count", steps as f64);
    out.metric("engine.tokens", "count", tokens as f64);
    out.metric("trace.overhead_s", "s", traced_s - run_s);
    out
}
