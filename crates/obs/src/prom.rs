//! Prometheus text exposition, the one writer of it in the workspace.
//!
//! A series name may carry its labels (`name{k="v"}`); series with the
//! same text before `{` form one family under one `# HELP`/`# TYPE`
//! header. `help` maps family names to help text (no entry, no `# HELP`).

use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::Trace;

fn family(series: &str) -> &str {
    series.split_once('{').map_or(series, |(name, _)| name)
}

fn header(out: &mut String, name: &str, kind: &str, help: &[(&str, &str)]) {
    if let Some((_, text)) = help.iter().find(|(family, _)| *family == name) {
        let _ = writeln!(out, "# HELP {name} {text}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Write every counter and gauge of `trace`, families in name order and
/// each family's series in name order.
pub fn write_trace(out: &mut String, trace: &Trace, help: &[(&str, &str)]) {
    let counters = trace.counters.iter().map(|(s, v)| (s.as_str(), "counter", v.to_string()));
    let gauges = trace.gauges.iter().map(|(s, v)| (s.as_str(), "gauge", v.to_string()));
    let mut samples: Vec<_> = counters.chain(gauges).collect();
    // Stable: each family keeps its series in the snapshot's name order.
    samples.sort_by_key(|(series, _, _)| family(series));
    let mut current = None;
    for (series, kind, value) in &samples {
        let name = family(series);
        if current != Some(name) {
            header(out, name, kind, help);
            current = Some(name);
        }
        let _ = writeln!(out, "{series} {value}");
    }
}

/// Write `hist` (nanosecond samples) as the histogram family `name`:
/// cumulative `_bucket` lines at `bounds_s` (seconds) and `+Inf`, then
/// `_sum` and `_count`. Then write the gauge family `quantile_family`
/// with one `{quantile="label"}` series per `(q, label)` of `quantiles`.
pub fn write_histogram(
    out: &mut String,
    name: &str,
    hist: &Histogram,
    bounds_s: &[f64],
    quantile_family: &str,
    quantiles: &[(f64, &str)],
    help: &[(&str, &str)],
) {
    header(out, name, "histogram", help);
    let count = hist.count();
    // `count_le` counts every sample recorded at or below each bound (to
    // the histogram's ≤1% value resolution), which is what `le` means.
    for ub in bounds_s {
        let le = hist.count_le((ub * 1e9).round() as u64);
        let _ = writeln!(out, "{name}_bucket{{le=\"{ub}\"}} {le}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
    let _ = writeln!(out, "{name}_sum {}", hist.sum() as f64 / 1e9);
    let _ = writeln!(out, "{name}_count {count}");
    header(out, quantile_family, "gauge", help);
    for (q, label) in quantiles {
        let value = hist.quantile(*q) as f64 / 1e9;
        let _ = writeln!(out, "{quantile_family}{{quantile=\"{label}\"}} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn a_family_stays_whole_when_a_sibling_sorts_between_its_series() {
        let rec = Recorder::enabled();
        // By name, "req_extra" sorts between "req" and "req{...}".
        for series in ["req{k=\"a\"}", "req", "req_extra"] {
            rec.counter_add(series, 1);
        }
        let mut out = String::new();
        write_trace(&mut out, &rec.snapshot(), &[("req", "Requests.")]);
        let want = "# HELP req Requests.\n# TYPE req counter\nreq 1\nreq{k=\"a\"} 1\n\
                    # TYPE req_extra counter\nreq_extra 1\n";
        assert_eq!(out, want);
    }
}
