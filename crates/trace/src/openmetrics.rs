//! Prometheus/OpenMetrics text exposition.
//!
//! A small builder that renders counters, gauges and
//! [`LatencyHistogram`]s in the Prometheus text format (`# HELP` /
//! `# TYPE` metadata, cumulative `_bucket{le="…"}` series, `_sum` and
//! `_count`). It lives here — at the bottom of the crate graph — so
//! `rqld`'s `/metrics` endpoint and the bench binaries share one
//! renderer and one set of conventions:
//!
//! * every metric name carries the `rql_` namespace prefix;
//! * counters end in `_total` (the builder appends it when missing);
//! * histograms are exported in **seconds** (the Prometheus base unit),
//!   with `le=` bounds taken from [`BUCKET_BOUNDS`](crate::counters::BUCKET_BOUNDS)
//!   divided by 1e6 — the same boundaries the `METRICS` verb's derived
//!   `p50/p99` fields are computed from.

use crate::counters::{LatencyHistogram, BUCKET_BOUNDS};

/// Builder accumulating one exposition page.
#[derive(Debug, Default)]
pub struct TextBuilder {
    buf: String,
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render a float the way Prometheus clients expect: decimal, no
/// exponent for the magnitudes we emit, trimmed of trailing zeros.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep one decimal so gauges parse as floats
    } else {
        let s = format!("{v:.9}");
        let trimmed = s.trim_end_matches('0');
        let trimmed = trimmed.strip_suffix('.').unwrap_or(trimmed);
        trimmed.to_string()
    }
}

impl TextBuilder {
    /// Fresh empty page.
    pub fn new() -> TextBuilder {
        TextBuilder::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.buf
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// One metadata block plus its single unlabelled sample.
    fn family(&mut self, name: &str, help: &str, kind: &str, value: &str) {
        self.header(name, help, kind);
        self.buf.push_str(&format!("{name} {value}\n"));
    }

    /// A monotonic counter. `_total` is appended to the name unless it
    /// already ends with it.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let mut name = sanitize(name);
        if !name.ends_with("_total") {
            name.push_str("_total");
        }
        self.family(&name, help, "counter", &value.to_string());
    }

    /// An integer gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.family(&sanitize(name), help, "gauge", &value.to_string());
    }

    /// A float gauge (uptime, lag in seconds, ratios).
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        self.family(&sanitize(name), help, "gauge", &fmt_f64(value));
    }

    /// A gauge with one fixed label set rendered verbatim, value 1 —
    /// the `rql_build_info{version="…"}` idiom.
    pub fn info(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        let name = sanitize(name);
        self.header(&name, help, "gauge");
        self.buf.push_str(&name);
        self.buf.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&sanitize(k));
            self.buf.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => self.buf.push_str("\\\\"),
                    '"' => self.buf.push_str("\\\""),
                    '\n' => self.buf.push_str("\\n"),
                    c => self.buf.push(c),
                }
            }
            self.buf.push('"');
        }
        self.buf.push_str("} 1\n");
    }

    /// A [`LatencyHistogram`] as a cumulative-bucket Prometheus
    /// histogram in seconds. `name` should end in `_seconds`.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &LatencyHistogram) {
        let name = sanitize(name);
        self.header(&name, help, "histogram");
        let mut cumulative = 0u64;
        for (n, bound) in hist.bucket_counts().iter().zip(BUCKET_BOUNDS) {
            cumulative += n;
            let le = fmt_f64(bound as f64 / 1e6);
            self.buf
                .push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        let count = hist.count();
        let sum = fmt_f64(hist.sum_micros() as f64 / 1e6);
        self.buf.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}\n"
        ));
    }

    /// Finish the page (Prometheus text format is newline-terminated
    /// per sample; no trailer required).
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::time::Duration;

    #[test]
    fn counter_gets_total_suffix_once() {
        let mut b = TextBuilder::new();
        b.counter("rql_queries_ok", "ok", 3);
        b.counter("rql_queries_total", "all", 5);
        let page = b.finish();
        assert!(page.contains("# TYPE rql_queries_ok_total counter\n"));
        assert!(page.contains("rql_queries_ok_total 3\n"));
        assert!(page.contains("rql_queries_total 5\n"));
        assert!(!page.contains("total_total"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100)); // bucket 7, le=0.000128
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(50)); // bucket 16, le=0.065536
        let mut b = TextBuilder::new();
        b.histogram("rql_query_latency_seconds", "latency", &h);
        let page = b.finish();
        assert!(page.contains("# TYPE rql_query_latency_seconds histogram\n"));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"0.000128\"} 2\n"));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"0.065536\"} 3\n"));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(page.contains("rql_query_latency_seconds_count 3\n"));
        assert!(page.contains("rql_query_latency_seconds_sum 0.0502\n"));
    }

    #[test]
    fn info_escapes_label_values() {
        let mut b = TextBuilder::new();
        b.info("rql_build_info", "build", &[("version", "1.0\"x\"")]);
        let page = b.finish();
        assert!(page.contains("rql_build_info{version=\"1.0\\\"x\\\"\"} 1\n"));
    }

    #[test]
    fn gauge_f64_renders_decimal() {
        let mut b = TextBuilder::new();
        b.gauge_f64("rql_uptime_seconds", "uptime", 2.0);
        b.gauge_f64("rql_repl_lag_seconds", "lag", 0.25);
        let page = b.finish();
        assert!(page.contains("rql_uptime_seconds 2.0\n"));
        assert!(page.contains("rql_repl_lag_seconds 0.25\n"));
    }
}
