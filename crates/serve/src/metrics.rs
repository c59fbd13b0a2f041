//! The daemon's Prometheus series: names, help text, and rendering through
//! [`llmpilot_obs::prom`]. Counters and gauges live in an
//! [`llmpilot_obs::Recorder`] used as a registry; request latency is an HDR
//! [`Histogram`] (≤1% relative error), rendered as cumulative buckets at
//! [`LATENCY_BUCKETS_S`] and as p50/p95/p99/p999 gauges.

use llmpilot_obs::hist::Histogram;
use llmpilot_obs::{prom, Recorder};

/// Histogram bucket upper bounds, seconds.
pub const LATENCY_BUCKETS_S: [f64; 12] =
    [0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0];

/// Quantiles exported as gauges from the latency histogram.
const LATENCY_QUANTILES: [(f64, &str); 4] =
    [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99"), (0.999, "0.999")];

// Series names, labels included; `HELP` describes each family.
pub(crate) const REQUESTS_RECOMMEND: &str = "llmpilot_requests_total{route=\"recommend\"}";
pub(crate) const REQUESTS_RELOAD: &str = "llmpilot_requests_total{route=\"reload\"}";
pub(crate) const REQUESTS_METRICS: &str = "llmpilot_requests_total{route=\"metrics\"}";
pub(crate) const REQUESTS_HEALTH: &str = "llmpilot_requests_total{route=\"healthz\"}";
/// 404s, 405s and parse errors.
pub(crate) const REQUESTS_OTHER: &str = "llmpilot_requests_total{route=\"other\"}";
/// By status class, 1xx..5xx (see [`response`]).
const RESPONSES: [&str; 5] = [
    "llmpilot_responses_total{class=\"1xx\"}",
    "llmpilot_responses_total{class=\"2xx\"}",
    "llmpilot_responses_total{class=\"3xx\"}",
    "llmpilot_responses_total{class=\"4xx\"}",
    "llmpilot_responses_total{class=\"5xx\"}",
];
pub(crate) const CACHE_HITS: &str = "llmpilot_cache_requests_total{result=\"hit\"}";
pub(crate) const CACHE_MISSES: &str = "llmpilot_cache_requests_total{result=\"miss\"}";
pub(crate) const QUEUE_DEPTH: &str = "llmpilot_queue_depth";
pub(crate) const QUEUE_REJECTED: &str = "llmpilot_queue_rejected_total";
pub(crate) const CONNECTIONS: &str = "llmpilot_connections_total";
pub(crate) const DATASET_GENERATION: &str = "llmpilot_dataset_generation";
pub(crate) const MODEL_GENERATION: &str = "llmpilot_model_generation";
/// A gauge, set from the tracing recorder's span count at each scrape.
pub(crate) const TRACE_SPANS: &str = "llmpilot_trace_spans_total";
pub(crate) const RELOADS: &str = "llmpilot_reloads_total";
pub(crate) const RETRAINS_OK: &str = "llmpilot_retrains_total{outcome=\"success\"}";
pub(crate) const RETRAINS_FAILED: &str = "llmpilot_retrains_total{outcome=\"failure\"}";
const REQUEST_DURATION: &str = "llmpilot_request_duration_seconds";
const LATENCY_QUANTILE: &str = "llmpilot_request_latency_quantile_seconds";

/// Help text per family.
const HELP: [(&str, &str); 13] = [
    ("llmpilot_requests_total", "Requests received, by route."),
    ("llmpilot_responses_total", "Responses sent, by status class."),
    ("llmpilot_cache_requests_total", "Recommendation cache lookups."),
    (QUEUE_DEPTH, "Connections waiting for a worker."),
    (QUEUE_REJECTED, "Connections refused with 503 (queue full)."),
    (CONNECTIONS, "Connections admitted."),
    (DATASET_GENERATION, "Generation of the live dataset."),
    (MODEL_GENERATION, "Generation of the live model."),
    (TRACE_SPANS, "Spans recorded by the tracing recorder."),
    (RELOADS, "Successful dataset reloads."),
    ("llmpilot_retrains_total", "Model retraining runs, by outcome."),
    (REQUEST_DURATION, "Service latency of handled requests."),
    (LATENCY_QUANTILE, "Service latency tail quantiles (HDR histogram, <=1% relative error)."),
];

/// The response counter for `status`'s class (clamped to 1xx..5xx).
pub fn response(status: u16) -> &'static str {
    RESPONSES[usize::from((status / 100).clamp(1, 5)) - 1]
}

/// Set every series to zero, so the first scrape already lists them all.
pub fn register(registry: &Recorder) {
    let requests =
        [REQUESTS_RECOMMEND, REQUESTS_RELOAD, REQUESTS_METRICS, REQUESTS_HEALTH, REQUESTS_OTHER];
    let by_result = [CACHE_HITS, CACHE_MISSES, RETRAINS_OK, RETRAINS_FAILED];
    let totals = [QUEUE_REJECTED, CONNECTIONS, RELOADS];
    for series in requests.into_iter().chain(RESPONSES).chain(by_result).chain(totals) {
        registry.counter_add(series, 0);
    }
    for series in [QUEUE_DEPTH, DATASET_GENERATION, MODEL_GENERATION, TRACE_SPANS] {
        registry.gauge_set(series, 0);
    }
}

/// Render the registry and the latency histogram in Prometheus text
/// exposition format.
pub fn render(registry: &Recorder, latency: &Histogram) -> String {
    let mut out = String::with_capacity(4096);
    prom::write_trace(&mut out, &registry.snapshot(), &HELP);
    prom::write_histogram(
        &mut out,
        REQUEST_DURATION,
        latency,
        &LATENCY_BUCKETS_S,
        LATENCY_QUANTILE,
        &LATENCY_QUANTILES,
        &HELP,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Recorder {
        let registry = Recorder::enabled();
        register(&registry);
        registry
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = registry();
        let ones =
            [REQUESTS_RECOMMEND, REQUESTS_RECOMMEND, REQUESTS_METRICS, CACHE_HITS, CACHE_MISSES];
        for series in ones.into_iter().chain([response(200), response(404), RETRAINS_FAILED]) {
            m.counter_add(series, 1);
        }
        for delta in [1, 1, -1] {
            m.gauge_add(QUEUE_DEPTH, delta);
        }
        m.gauge_set(DATASET_GENERATION, 2);
        m.gauge_set(MODEL_GENERATION, 3);
        let latency = Histogram::default();
        latency.record_secs(300e-6);
        latency.record_secs(5.0);

        let text = render(&m, &latency);
        assert!(text.contains("llmpilot_requests_total{route=\"recommend\"} 2\n"));
        assert!(text.contains("llmpilot_requests_total{route=\"metrics\"} 1\n"));
        assert!(text.contains("llmpilot_responses_total{class=\"2xx\"} 1\n"));
        assert!(text.contains("llmpilot_responses_total{class=\"4xx\"} 1\n"));
        assert!(text.contains("llmpilot_cache_requests_total{result=\"hit\"} 1\n"));
        assert!(text.contains("llmpilot_cache_requests_total{result=\"miss\"} 1\n"));
        assert!(text.contains("llmpilot_queue_depth 1\n"));
        assert!(text.contains("llmpilot_dataset_generation 2\n"));
        assert!(text.contains("llmpilot_model_generation 3\n"));
        assert!(text.contains("llmpilot_retrains_total{outcome=\"failure\"} 1\n"));
        assert!(text.contains("llmpilot_request_duration_seconds_count 2\n"));
        assert!(text.contains("llmpilot_request_duration_seconds_sum 5.0003\n"));
        // The 5 s sample lies beyond the last finite bound: only +Inf has it.
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let latency = Histogram::default();
        latency.record_secs(50e-6); // <= 0.0001
        latency.record_secs(400e-6); // <= 0.0005
        let text = render(&registry(), &latency);
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"0.0005\"} 2"));
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"1\"} 2"));
        // Each bucket count never decreases as the bound grows.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("llmpilot_request_duration_seconds_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), LATENCY_BUCKETS_S.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn latency_quantile_gauges_are_accurate_and_ordered() {
        let latency = Histogram::default();
        // 1..=1000 µs uniformly: p50 ≈ 500 µs, p99 ≈ 990 µs.
        for us in 1..=1000u32 {
            latency.record_secs(f64::from(us) * 1e-6);
        }
        let text = render(&registry(), &latency);
        let q = |label: &str| -> f64 {
            let needle =
                format!("llmpilot_request_latency_quantile_seconds{{quantile=\"{label}\"}}");
            text.lines()
                .find(|l| l.starts_with(&needle))
                .unwrap_or_else(|| panic!("missing {needle} in {text}"))
                .split_whitespace()
                .last()
                .unwrap()
                .parse()
                .unwrap()
        };
        let (p50, p95, p99, p999) = (q("0.5"), q("0.95"), q("0.99"), q("0.999"));
        assert!((p50 - 500e-6).abs() / 500e-6 < 0.01, "p50 = {p50}");
        assert!((p99 - 990e-6).abs() / 990e-6 < 0.01, "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
    }

    /// Every family has one `# TYPE`, and all its samples follow that line
    /// before the next `# TYPE`: none is untyped, typed late, or split.
    #[test]
    fn every_family_is_typed_once_before_its_contiguous_samples() {
        let text = render(&registry(), &Histogram::default());
        let mut typed: Vec<&str> = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with("# HELP ")) {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap();
                assert!(!typed.contains(&family), "{family} typed twice");
                typed.push(family);
                continue;
            }
            let (series, value) = line.split_once(' ').expect("sample is `name value`");
            assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line:?}");
            let current = *typed.last().expect("sample before any # TYPE");
            let rest = series.strip_prefix(current).unwrap_or("!");
            let suffixes = ["_bucket", "_sum", "_count"];
            let rest = suffixes.iter().find_map(|s| rest.strip_prefix(s)).unwrap_or(rest);
            assert!(rest.is_empty() || rest.starts_with('{'), "{line:?} is outside its block");
        }
        assert_eq!(typed.len(), HELP.len(), "every family is rendered");
    }
}
