//! Prometheus text exposition for the server's registries.
//!
//! The `METRICS` verb renders every registry as flat `name value` /
//! JSON lines; this module renders the *same* [`Readings`] through
//! [`rql_trace::TextBuilder`] for the `--metrics-listen` endpoint, so a
//! scrape and a `METRICS` frame taken at the same moment agree number
//! for number. Each metric's declared kind picks its family type:
//! counters get the `_total` suffix Prometheus naming demands, gauges
//! stay as they are, and derived summaries (`latency_p50_micros` and
//! friends) give way to the latency histogram itself, exported as
//! cumulative buckets so the scrape side can compute any quantile with
//! `histogram_quantile`. Every HELP line is the metric's doc comment.

use std::time::Duration;

use rql_trace::{LatencyHistogram, MetricKind, TextBuilder};

use crate::metrics::Readings;

/// Render the full `/metrics` page from one consistent reading.
/// `latency` is the live query histogram; `uptime` is the serving
/// process's age.
pub fn render_openmetrics(
    readings: &Readings,
    latency: &LatencyHistogram,
    uptime: Duration,
) -> String {
    let mut b = TextBuilder::new();
    b.info(
        "rql_build_info",
        "Build metadata of the serving binary.",
        &[("version", env!("CARGO_PKG_VERSION"))],
    );
    b.gauge_f64(
        "rql_uptime_seconds",
        "Seconds since the server started serving.",
        uptime.as_secs_f64(),
    );
    for (prefix, metrics, values) in readings.sections() {
        for (m, value) in metrics.iter().zip(values) {
            let name = format!("rql_{prefix}{}", m.name);
            match m.kind {
                MetricKind::Counter => b.counter(&name, &m.help(), value),
                MetricKind::Gauge => b.gauge(&name, &m.help(), value),
                MetricKind::Derived => {}
            }
        }
        if metrics.iter().any(|m| m.kind == MetricKind::Derived) {
            b.histogram(
                "rql_query_latency_seconds",
                "End-to-end query latency (admission to reply).",
                latency,
            );
        }
    }
    // The lag gauge Prometheus alerting actually wants: the propagated
    // commit-timestamp lag in base units, derived from `lag_micros`.
    b.gauge_f64(
        "rql_repl_lag_seconds",
        "Replication lag from propagated leader commit timestamps.",
        readings.repl.lag_micros as f64 / 1e6,
    );
    b.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use rql_memo::MemoStatsSnapshot;
    use rql_pagestore::IoStatsSnapshot;
    use rql_repl::ReplSnapshot;

    use super::*;
    use crate::metrics::{Metrics, StandingSnapshot};

    fn page() -> String {
        let m = Metrics::new();
        m.queries_total.inc();
        m.connections_open.inc();
        m.latency.record(Duration::from_micros(100));
        let readings = Readings {
            server: m.snapshot(),
            io: IoStatsSnapshot {
                pagelog_reads: 7,
                sidecar_bytes: 1024,
                ..Default::default()
            },
            memo: MemoStatsSnapshot {
                hits: 5,
                bytes: 4096,
                ..Default::default()
            },
            standing: StandingSnapshot {
                queries: 2,
                rows_pushed: 9,
                ..Default::default()
            },
            repl: ReplSnapshot {
                role: 2,
                segments_applied: 3,
                lag_micros: 250_000,
                ..Default::default()
            },
        };
        render_openmetrics(&readings, &m.latency, Duration::from_secs(2))
    }

    #[test]
    fn exposition_covers_every_registry() {
        let page = page();
        assert!(page.contains("rql_build_info{version=\""));
        assert!(page.contains("rql_uptime_seconds 2.0\n"));
        assert!(page.contains("rql_queries_total 1\n"));
        assert!(page.contains("rql_io_pagelog_reads_total 7\n"));
        assert!(page.contains("rql_memo_hits_total 5\n"));
        assert!(page.contains("rql_standing_rows_pushed_total 9\n"));
        assert!(page.contains("rql_repl_segments_applied_total 3\n"));
        // HELP text is the declaring field's doc comment.
        assert!(page.contains(
            "# HELP rql_io_pagelog_reads_total Pages fetched from the Pagelog archive \
             (cache misses → disk).\n"
        ));
        assert!(page.contains("rql_query_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(page.contains("rql_query_latency_seconds_count 1\n"));
    }

    #[test]
    fn levels_export_as_gauges_not_counters() {
        let page = page();
        assert!(page.contains("# TYPE rql_connections_open gauge\n"));
        assert!(page.contains("rql_connections_open 1\n"));
        // Cumulative byte counts only ever grow: counters, not gauges.
        assert!(page.contains("# TYPE rql_io_sidecar_bytes_total counter\n"));
        assert!(page.contains("# TYPE rql_memo_spill_bytes_total counter\n"));
        assert!(page.contains("# TYPE rql_memo_bytes gauge\n"));
        assert!(page.contains("# TYPE rql_standing_queries gauge\n"));
        assert!(page.contains("# TYPE rql_repl_lag_micros gauge\n"));
        assert!(page.contains("rql_repl_lag_seconds 0.25\n"));
        // Quantiles are derivable from the buckets; the flat micros
        // fields must not leak into the exposition.
        assert!(!page.contains("latency_p50"));
        assert!(!page.contains("latency_p99"));
    }
}
