//! `perfbench` — the repository's benchmark: end-to-end metrics of the
//! three user paths (characterize a GPU grid, evaluate recommenders on
//! unseen LLMs, serve `/recommend` online) and, in a separate traced run,
//! per-layer metrics measured from outside each layer's public API.
//!
//! ```text
//! perfbench --workload sweep|evaluate|serve_cold|serve_hot --seed N
//!           --seconds S --trace 0|1 [--daemon PATH] [--work-dir DIR]
//! ```
//!
//! Standard output ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Usually started through `perfbench/run.sh`, which builds the
//! `llm-pilot` daemon and this binary first (see `perfbench/README.md`).

mod bisect;
mod calibrate;
mod clock;
mod digest;
mod evaluate;
mod loadgen;
mod proc;
mod quality;
mod report;
mod schedule;
mod serve;
mod setup;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::exit;

use report::Outcome;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("so_score", "score"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("traces.generate_s", "s"),
    ("workload.fit_s", "s"),
    ("sweep.overhead_s", "s"),
    ("sweep.unaccounted_share", "ratio"),
    ("characterize.cell_ms_p50", "ms"),
    ("characterize.cell_ms_max", "ms"),
    ("tuner.tune_s", "s"),
    ("tuner.probes", "count"),
    ("load.run_s", "s"),
    ("load.tests", "count"),
    ("load.driver_s", "s"),
    ("engine.step_s", "s"),
    ("engine.step_ns_p50", "ns"),
    ("engine.steps", "count"),
    ("engine.tokens", "count"),
    ("evaluate.llm_pilot_s", "s"),
    ("evaluate.rf_s", "s"),
    ("evaluate.perfnet_s", "s"),
    ("evaluate.judge_s", "s"),
    ("evaluate.unaccounted_share", "ratio"),
    ("predictor.train_ms_p50", "ms"),
    ("predictor.predict_us", "us"),
    ("predictor.predicts", "count"),
    ("baselines.rf_fold_ms_p50", "ms"),
    ("baselines.perfnet_fold_ms_p50", "ms"),
    ("recommend.search_us", "us"),
    ("serving.recommend_us_p50", "us"),
    ("serving.recommend_us_p99", "us"),
    ("http.parse_us", "us"),
    ("http.render_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_us", "us"),
    ("store.reload_ms", "ms"),
    ("registry.train_ms", "ms"),
    ("serve.reloads", "count"),
    ("serve.server_us_p50", "us"),
    ("serve.server_us_p99", "us"),
    ("serve.wait_us_p50", "us"),
    ("serve.queue_rejected", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.refused_503", "count"),
    ("loadgen.io_error", "count"),
    ("loadgen.wrong_answer", "count"),
    ("loadgen.mixed_generation", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_s", "s"),
];

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 2] = ["sweep", "evaluate"];
/// Workloads that run on request but are not listed: the open-loop
/// `/recommend` traffic, whose latency and capacity figures swing more
/// between runs on a shared 2-vCPU machine than any bound allows (see
/// `perfbench/README.md`). Their layers are measured in `evaluate`'s
/// traced run.
pub const UNLISTED: [&str; 2] = ["serve_cold", "serve_hot"];

/// Arguments every workload receives.
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Length of the measurement window, seconds.
    pub seconds: f64,
    /// The `llm-pilot` binary (serve workloads).
    pub daemon: Option<PathBuf>,
    /// Directory for the dataset files the serve workloads write.
    pub work_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload {}|{} --seed N --seconds S --trace 0|1 \
         [--daemon PATH] [--work-dir DIR]",
        WORKLOADS.join("|"),
        UNLISTED.join("|")
    );
    exit(2)
}

/// Put the run's metrics in canonical order, fill layers the workload
/// never entered with 0, and demote non-finite values to a failed check.
fn finalize(mut out: Outcome, expected: &[(&'static str, &'static str)], trace: bool) -> Outcome {
    let mut metrics = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let found: Vec<_> = out.metrics.iter().filter(|m| m.name == name).cloned().collect();
        let value = match found.as_slice() {
            [m] if m.unit == unit => m.value,
            [] if trace => 0.0,
            _ => {
                out.check(false, format!("metric {name} missing, duplicated or mis-united"));
                0.0
            }
        };
        if !value.is_finite() {
            out.check(false, format!("metric {name} is not finite"));
        }
        metrics.push(report::Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }
    for m in &out.metrics {
        if !expected.iter().any(|(n, _)| *n == m.name) {
            out.notes.push(format!("unlisted metric {} = {}", m.name, m.value));
        }
    }
    out.metrics = metrics;
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required")
    };
    let args = RunArgs { seed, seconds, daemon, work_dir };

    let out = match (workload.as_str(), trace) {
        ("sweep", false) => sweep::run(&args),
        ("sweep", true) => sweep::trace(&args),
        ("evaluate", false) => evaluate::run(&args),
        ("evaluate", true) => evaluate::trace(&args),
        ("serve_cold" | "serve_hot", _) => {
            let hot = workload == "serve_hot";
            match serve::run(&args, hot, trace) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1)
                }
            }
        }
        (other, _) => usage(&format!("unknown workload {other:?}")),
    };
    let out =
        if trace { finalize(out, &PER_LAYER, true) } else { finalize(out, &END_TO_END, false) };
    for note in &out.notes {
        println!("{note}");
    }
    println!("{}", out.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// and workloads this binary prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |key: &str| {
                        let at = obj.find(&format!("\"{key}\"")).expect("field present");
                        obj[at..].split('"').nth(3).expect("string value").to_string()
                    };
                    (
                        field("name"),
                        if section == "workloads" { String::new() } else { field("unit") },
                    )
                })
                .collect()
        };
        let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), listed(&END_TO_END));
        assert_eq!(names("per_layer"), listed(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn finalize_orders_fills_and_flags() {
        let mut out = Outcome { correct: true, ..Outcome::default() };
        out.metric("engine.steps", "count", 5.0);
        out.metric("traces.generate_s", "s", 0.25);
        let out = finalize(out, &PER_LAYER, true);
        assert!(out.correct);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert_eq!(out.metrics[0].name, "traces.generate_s");
        assert_eq!(out.metrics.iter().find(|m| m.name == "http.parse_us").unwrap().value, 0.0);

        let mut out = Outcome { correct: true, ..Outcome::default() };
        out.metric("setup_s", "s", f64::NAN);
        let out = finalize(out, &END_TO_END, false);
        assert!(!out.correct, "missing and non-finite end-to-end metrics fail the run");
    }
}
