//! Workload `evaluate`: the Fig. 8 leave-one-LLM-out protocol (U = 200,
//! 100 ms nTTFT, 50 ms ITL) for one method per model family —
//! `LlmPilotMethod::untuned` (GBDT), `RfMethod::plain` (forest) and
//! `NnMethod(PerfNet)` (MLP) — over the 10 catalog LLMs, on a full-grid
//! dataset built from the seed during set-up.
//!
//! The untraced run times `Evaluation::evaluate` per method, plus one
//! LLM-Pilot recommendation per held-out LLM (what `llm-pilot recommend`
//! does for an unseen LLM) for the per-operation latency. The traced run
//! times each method's folds through `Method::recommend`, the evaluation
//! harness through the trivial static method, and the LLM-Pilot fold's
//! parts: `PerformancePredictor::train`, `predict`, and the
//! `recommend` search over a precomputed prediction grid.
//!
//! Every time is read from the process's CPU clock (see `clock`), except
//! the measurement window itself, which is wall time. The untraced run
//! scales its figures to the reference speed (see `calibrate`).

use std::time::Instant;

use llmpilot_core::baselines::{
    LlmPilotMethod, Method, MethodInput, NnMethod, NnVariant, PredictionGrid, RfMethod,
    StaticMethod,
};
use llmpilot_core::evaluate::{Evaluation, MethodScore};
use llmpilot_core::{recommend, CharacterizationDataset, PerformancePredictor, PredictorConfig};
use llmpilot_core::{Recommendation, RecommendationRequest};
use llmpilot_sim::gpu::paper_profiles;
use llmpilot_sim::llm::llm_by_name;

use crate::calibrate::{self, Calibration};
use crate::digest::Digest;
use crate::report::{print_layer_table, LayerRow, Outcome};
use crate::stats::{median, percentile};
use crate::{clock, proc, quality, setup, RunArgs};

/// Held-out LLMs per method.
const HELD_OUT: usize = 10;
/// Fewest rounds of (per-fold LLM-Pilot pass, three-method evaluation) in
/// the untraced run, however short the window. Rounds repeat until the
/// window is spent, and each figure is a median over the rounds, so a
/// stretch of the run where the shared machine was slow sets none of them.
const MIN_ROUNDS: usize = 3;

fn methods() -> Vec<Box<dyn Method>> {
    vec![
        Box::new(LlmPilotMethod::untuned()),
        Box::new(RfMethod::plain()),
        Box::new(NnMethod::new(NnVariant::PerfNet)),
    ]
}

/// Evaluate every method; the CPU seconds each took and the scores.
fn evaluate_all(ds: &CharacterizationDataset) -> (Vec<f64>, Vec<MethodScore>) {
    let eval = Evaluation::new(ds, paper_profiles());
    methods()
        .iter()
        .map(|m| {
            let t = clock::cpu();
            let score = eval.evaluate(m.as_ref());
            (t.elapsed_s(), score)
        })
        .unzip()
}

/// The score table as text: per method its aggregate scores and per-LLM
/// outcomes, every float at full precision.
fn score_table(scores: &[MethodScore]) -> String {
    let rec = |r: &Option<Recommendation>| {
        r.as_ref().map_or("none".to_string(), |r| {
            format!("{} x{} u{} ${:?}", r.profile, r.pods, r.u_max, r.cost_per_hour)
        })
    };
    let mut table = String::new();
    for s in scores {
        table.push_str(&format!(
            "{} success={:?} overspend={:?} so={:?}\n",
            s.method, s.success_rate, s.mean_overspend, s.so_score
        ));
        for o in &s.outcomes {
            table.push_str(&format!(
                "  {} rec={} oracle={} success={} overspend={:?}\n",
                o.llm,
                rec(&o.recommendation),
                rec(&o.oracle),
                o.success,
                o.overspend
            ));
        }
    }
    table
}

/// Run `per_fold` on the leave-one-out input of every LLM of `ds`, timing
/// each call: `(llm, CPU seconds, result)`.
fn folds<T>(
    ds: &CharacterizationDataset,
    mut per_fold: impl FnMut(&MethodInput<'_>) -> T,
) -> Vec<(String, f64, T)> {
    let request = RecommendationRequest::paper_defaults();
    let profiles = paper_profiles();
    ds.llms()
        .into_iter()
        .filter_map(|llm| {
            let spec = llm_by_name(&llm)?;
            let candidates = quality::feasible_profiles(&llm, &profiles);
            let input = MethodInput {
                train_rows: ds.rows_excluding_llm(&llm),
                test_llm: &spec,
                reference_rows: Vec::new(),
                profiles: &candidates,
                request: &request,
            };
            let t = clock::cpu();
            let result = per_fold(&input);
            Some((llm, t.elapsed_s(), result))
        })
        .collect()
}

/// Checks on one evaluation: ten outcomes per method, finite S/O scores.
fn check_scores(out: &mut Outcome, scores: &[MethodScore]) {
    for s in scores {
        out.attempted += HELD_OUT as u64;
        let missing = HELD_OUT.saturating_sub(s.outcomes.len());
        out.failed += missing as u64;
        out.check(missing == 0, format!("{}: {} outcomes", s.method, s.outcomes.len()));
        out.check(s.so_score.is_finite(), format!("{}: S/O score is finite", s.method));
    }
}

/// Whether per-fold recommendations equal the evaluation's outcomes.
fn same_recommendations(
    folds: &[(String, f64, Option<Recommendation>)],
    score: &MethodScore,
) -> bool {
    folds.len() == score.outcomes.len()
        && folds
            .iter()
            .zip(&score.outcomes)
            .all(|((llm, _, rec), o)| *llm == o.llm && *rec == o.recommendation)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut cal = Calibration::default();
    let mut setup_s = Vec::new();
    let mut csvs = Vec::new();
    let mut ds = None;
    for _ in 0..setup::SETUPS {
        cal.sample(calibrate::SAMPLES);
        let t = clock::cpu();
        let s = setup::sampler(args.seed);
        let d = setup::dataset(&s.sampler, 0);
        setup_s.push(t.elapsed_s());
        csvs.push(d.to_csv());
        ds = Some(d);
    }
    let ds = ds.expect("set-ups ran");
    out.check(csvs.iter().all(|c| *c == csvs[0]), "every set-up builds identical dataset bytes");

    // Timed phase: rounds of (per-fold LLM-Pilot pass, evaluation) while
    // another one fits in the window, with calibration samples between the
    // parts. The window is wall time; every figure is CPU time.
    let window = Instant::now();
    let method = LlmPilotMethod::untuned();
    let mut passes: Vec<Vec<(String, f64, Option<Recommendation>)>> = Vec::new();
    let mut cpus = Vec::new();
    let mut tables = Vec::new();
    let llm_pilot = loop {
        let round = Instant::now();
        passes.push(folds(&ds, |input| method.recommend(input).ok()));
        cal.sample(calibrate::SAMPLES);
        let t = clock::cpu();
        let (_, scores) = evaluate_all(&ds);
        cpus.push(t.elapsed_s());
        cal.sample(calibrate::SAMPLES);
        check_scores(&mut out, &scores);
        tables.push(score_table(&scores));
        let spent = window.elapsed().as_secs_f64();
        if cpus.len() >= MIN_ROUNDS && spent + round.elapsed().as_secs_f64() > args.seconds {
            break scores[0].clone();
        }
    };
    let fold_ms: Vec<f64> = (0..passes[0].len())
        .filter_map(|i| median(&passes.iter().map(|p| p[i].1 * 1e3).collect::<Vec<_>>()))
        .collect();
    for pass in &passes {
        out.check(
            same_recommendations(pass, &llm_pilot),
            "per-fold LLM-Pilot matches the evaluation",
        );
    }
    out.check(tables.iter().all(|t| *t == tables[0]), "every repetition scores identically");
    let (setup_raw, cpu) =
        (median(&setup_s).unwrap_or(f64::NAN), median(&cpus).unwrap_or(f64::NAN));
    let (p50, p99) = (
        percentile(&fold_ms, 0.50).unwrap_or(f64::NAN),
        percentile(&fold_ms, 0.99).unwrap_or(f64::NAN),
    );

    print!("{}", tables[0]);
    println!(
        "evaluate: three-method Evaluation::evaluate CPU times {cpus:?} s; p50/p99 over {} LLM-Pilot folds \
         (each the median of {} passes)",
        fold_ms.len(),
        passes.len()
    );
    let scale = cal.report(&mut out);
    println!(
        "  raw CPU: setup_s {setup_raw:.6} s, cpu_s {cpu:.6} s, p50_ms {p50:.6}, p99_ms {p99:.6}"
    );
    println!("digest evaluate.scores {}", Digest::default().update(tables[0].as_bytes()).hex());
    println!("digest evaluate.dataset {}", Digest::default().update(csvs[0].as_bytes()).hex());

    out.metric("setup_s", "s", setup_raw * scale);
    out.metric("cpu_s", "s", cpu * scale);
    out.metric("peak_rss_mb", "MiB", proc::peak_rss_mb("self").unwrap_or(f64::NAN));
    out.metric("ok_share", "ratio", 1.0 - out.failed as f64 / out.attempted.max(1) as f64);
    out.metric("so_score", "score", llm_pilot.so_score);
    out.metric("p50_ms", "ms", p50 * scale);
    out.metric("p99_ms", "ms", p99 * scale);
    out.metric("max_rate_rps", "1/s", (methods().len() * HELD_OUT) as f64 / (cpu * scale));
    out
}

/// The traced run: per-layer metrics.
pub fn trace(args: &RunArgs) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let s = setup::sampler(args.seed);
    let ds = setup::dataset(&s.sampler, 0);

    let (method_s, scores) = evaluate_all(&ds);
    check_scores(&mut out, &scores);
    let run_s: f64 = method_s.iter().sum();

    let traced = clock::cpu();
    // The harness around the methods (candidate filtering, row slicing,
    // judging), measured with the static method, whose recommendation is
    // free — once per evaluated method.
    let eval = Evaluation::new(&ds, paper_profiles());
    let t = clock::cpu();
    for _ in methods() {
        eval.evaluate(&StaticMethod::paper_best());
    }
    let judge_s = t.elapsed_s();

    // Each method's folds through Method::recommend.
    let mut fold_ms: Vec<Vec<f64>> = Vec::new();
    for (m, score) in methods().iter().zip(&scores) {
        let f = folds(&ds, |input| m.recommend(input).ok());
        out.check(
            same_recommendations(&f, score),
            format!("per-fold {} matches the evaluation", score.method),
        );
        fold_ms.push(f.iter().map(|(_, s, _)| s * 1e3).collect());
    }
    let folds_s: Vec<f64> = fold_ms.iter().map(|f| f.iter().sum::<f64>() / 1e3).collect();

    // The LLM-Pilot fold's parts: train, predict the grid, search it.
    let config = PredictorConfig::default();
    let (mut train_ms, mut predict_s, mut search_s) = (Vec::new(), 0.0, 0.0);
    let mut predicts = 0u64;
    let parts = folds(&ds, |input| {
        let t = clock::cpu();
        let model =
            PerformancePredictor::train(&input.train_rows, &input.request.constraints, &config);
        train_ms.push(t.elapsed_s() * 1e3);
        let model = model.ok()?;
        let t = clock::cpu();
        let mut grid = PredictionGrid::default();
        for p in input.profiles {
            for &u in &input.request.user_grid {
                let (l1, l2) = model.predict(input.test_llm, p, u);
                grid.insert(&p.name(), u, l1, l2);
                predicts += 1;
            }
        }
        predict_s += t.elapsed_s();
        let t = clock::cpu();
        let rec = recommend(input.profiles, input.request, |p, u| grid.get(&p.name(), u));
        search_s += t.elapsed_s();
        rec.ok()
    });
    out.check(
        same_recommendations(&parts, &scores[0]),
        "train + predict + search matches the evaluation",
    );
    let traced_s = traced.elapsed_s();

    let mut rows: Vec<LayerRow> = scores
        .iter()
        .zip(&folds_s)
        .map(|(s, secs)| LayerRow {
            layer: format!("{} folds (Method::recommend)", s.method),
            time: *secs,
        })
        .collect();
    rows.push(LayerRow { layer: "evaluation harness (judge)".into(), time: judge_s });
    let unaccounted = print_layer_table("evaluate (Evaluation::evaluate x3)", "s", run_s, &rows);
    let train_s: f64 = train_ms.iter().sum::<f64>() / 1e3;
    println!(
        "  LLM-Pilot folds {:.3} s = predictor.train {train_s:.3} s + predict {predict_s:.4} s + search {search_s:.5} s",
        folds_s[0]
    );
    println!(
        "  traced passes {traced_s:.3} s vs untraced run {run_s:.3} s: overhead {:.3} s",
        traced_s - run_s
    );

    let n = parts.len().max(1) as f64;
    out.metric("traces.generate_s", "s", s.traces_s);
    out.metric("workload.fit_s", "s", s.fit_s);
    out.metric("evaluate.llm_pilot_s", "s", method_s[0]);
    out.metric("evaluate.rf_s", "s", method_s[1]);
    out.metric("evaluate.perfnet_s", "s", method_s[2]);
    out.metric("evaluate.judge_s", "s", judge_s);
    out.metric("evaluate.unaccounted_share", "ratio", unaccounted);
    out.metric("predictor.train_ms_p50", "ms", percentile(&train_ms, 0.5).unwrap_or(0.0));
    out.metric("predictor.predict_us", "us", predict_s * 1e6 / predicts.max(1) as f64);
    out.metric("predictor.predicts", "count", predicts as f64);
    out.metric("baselines.rf_fold_ms_p50", "ms", percentile(&fold_ms[1], 0.5).unwrap_or(0.0));
    out.metric("baselines.perfnet_fold_ms_p50", "ms", percentile(&fold_ms[2], 0.5).unwrap_or(0.0));
    out.metric("recommend.search_us", "us", search_s * 1e6 / n);
    out.metric("trace.overhead_s", "s", traced_s - run_s);
    online_layers(args, &mut out);
    out
}

/// The online path's layers, measured beside the offline evaluation that
/// trains the same predictor: the `serve_hot` traffic (cached reads,
/// misses that run `ServingModel::recommend`, dataset reloads) against
/// `llm-pilot serve` on this seed's dataset.
fn online_layers(args: &RunArgs, out: &mut Outcome) {
    const ONLINE: [&str; 7] =
        ["serving.", "http.", "cache.", "store.", "registry.", "serve.", "loadgen."];
    match crate::serve::run(args, true, true) {
        Ok(online) => {
            out.correct &= online.correct;
            out.notes.extend(online.notes);
            out.metrics.extend(
                online.metrics.into_iter().filter(|m| ONLINE.iter().any(|p| m.name.starts_with(p))),
            );
        }
        Err(e) => out.check(false, format!("online layers: {e}")),
    }
}
