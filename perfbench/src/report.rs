//! What a run prints: a human-readable layer table and digest lines, then
//! — as the last line of standard output — one JSON object with the
//! run's verdict and its metrics.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit (as listed in `BENCHMARK.json`).
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (cells, held-out LLMs, or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the JSON line (check failures,
    /// observability gaps).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Record a failed check: the run is not correct.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("check failed: {}", what.into()));
        }
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// One row of a layer table: a layer's cost and its share of the
/// end-to-end time it reconciles against.
pub struct LayerRow {
    /// Layer name.
    pub layer: String,
    /// Time spent in the layer, in the table's unit.
    pub time: f64,
}

/// Print a layer table in `unit` (`"s"`, `"us"`): each layer's time and
/// share of `total`, the unaccounted remainder, and a flag when the
/// remainder exceeds 10% (an observability gap). Returns the unaccounted
/// share.
pub fn print_layer_table(title: &str, unit: &str, total: f64, rows: &[LayerRow]) -> f64 {
    println!("layer table: {title} (end to end {total:.4} {unit})");
    let mut accounted = 0.0;
    for row in rows {
        accounted += row.time;
        println!(
            "  {:<44} {:>12.4} {unit} {:>7.1}%",
            row.layer,
            row.time,
            100.0 * row.time / total
        );
    }
    let unaccounted = (total - accounted) / total;
    println!(
        "  {:<44} {:>12.4} {unit} {:>7.1}%{}",
        "unaccounted",
        total - accounted,
        100.0 * unaccounted,
        if unaccounted.abs() > 0.10 { "  <-- observability gap (> 10%)" } else { "" }
    );
    unaccounted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { correct: true, attempted: 3, failed: 0, ..Outcome::default() };
        o.metric("p50_ms", "ms", 1.25);
        o.metric("setup_s", "s", 0.5);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.check(false, "x");
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
