//! Server metrics, and the flat renderers behind the `METRICS` and
//! `REPLSTATUS` verbs.
//!
//! Every registry is declared once with [`rql_trace::registry!`]: the
//! server's own below, the store's in `rql-pagestore`, the memo's,
//! the standing engine's and replication's in their crates. A
//! [`Readings`] holds one snapshot of each and lists them as prefixed
//! sections in wire order; `METRICS` (human and JSON), `/metrics`
//! ([`crate::observe`]) and the metric catalog all walk that one list.
//! Keys and their order are a wire-stable surface read by dashboards,
//! scripts and the benchmark, and may only grow at the end of a
//! section.

use rql_memo::MemoStatsSnapshot;
use rql_pagestore::IoStatsSnapshot;
use rql_repl::ReplSnapshot;
use rql_trace::{Counter, Metric};

pub use rql_standing::StandingSnapshot;
pub use rql_trace::LatencyHistogram;

rql_trace::registry! {
    /// The server's metrics registry.
    #[derive(Debug, Default)]
    pub struct Metrics(Counter) =>
    /// Point-in-time copy of [`Metrics`], latency summary included.
    MetricsSnapshot {
        /// Queries accepted for execution (RUN statements admitted).
        queries_total: counter,
        /// Queries that completed successfully.
        queries_ok: counter,
        /// Queries that failed with an error (including cancellations).
        queries_failed: counter,
        /// Queries cancelled by client `CANCEL` (subset of failed).
        queries_cancelled: counter,
        /// Queries killed by the per-query deadline (subset of failed).
        queries_timed_out: counter,
        /// Requests rejected at admission (queue full).
        admission_rejected: counter,
        /// PREPARE requests served.
        prepares_total: counter,
        /// Mechanism loop iterations (Qq executions) across all queries.
        qq_iterations: counter,
        /// Qq rows produced across all queries.
        qq_rows: counter,
        /// Heap pages skipped by delta-driven iteration (served from the
        /// delta scanner's cache).
        pages_skipped_delta: counter,
        /// Heap pages skipped because a zone-map/bloom sidecar refuted the
        /// query's WHERE clause.
        pages_pruned_filter: counter,
        /// Result rows shipped to clients.
        rows_returned: counter,
        /// Currently open client connections.
        connections_open: gauge,
        /// Connections accepted since start.
        connections_total: counter,
        /// Jobs waiting in the admission queue right now.
        queue_depth: gauge,
        /// Jobs executing right now.
        in_flight: gauge,
    }
    extra {
        /// End-to-end query latency.
        pub latency: LatencyHistogram,
    }
    derived |m| {
        /// Queries timed by the latency histogram.
        latency_count = m.latency.count(),
        /// Mean query latency in microseconds.
        latency_mean_micros = m.latency.mean_micros(),
        /// Median query latency in microseconds.
        latency_p50_micros = m.latency.quantile_micros(0.50),
        /// 99th-percentile query latency in microseconds.
        latency_p99_micros = m.latency.quantile_micros(0.99),
    }
}

impl Metrics {
    /// Fresh zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One registry's metrics under its key prefix, with their values.
pub type Section = (&'static str, &'static [Metric], Vec<u64>);

/// One reading of every registry the server exports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readings {
    /// The server's own registry.
    pub server: MetricsSnapshot,
    /// The shared store's page-I/O counters.
    pub io: IoStatsSnapshot,
    /// The shared memo store's counters.
    pub memo: MemoStatsSnapshot,
    /// The standing-query engine's metrics.
    pub standing: StandingSnapshot,
    /// Replication metrics.
    pub repl: ReplSnapshot,
}

impl Readings {
    /// Every registry as a prefixed section, in wire order.
    pub fn sections(&self) -> [Section; 5] {
        [
            ("", MetricsSnapshot::METRICS, self.server.values()),
            ("io_", IoStatsSnapshot::METRICS, self.io.values()),
            ("memo_", MemoStatsSnapshot::METRICS, self.memo.values()),
            (
                "standing_",
                StandingSnapshot::METRICS,
                self.standing.values(),
            ),
            ("repl_", ReplSnapshot::METRICS, self.repl.values()),
        ]
    }

    /// The `METRICS` reply: one `key value` line per metric, or one
    /// flat JSON object.
    pub fn render(&self, json: bool) -> String {
        let entries = self
            .sections()
            .into_iter()
            .flat_map(|(prefix, metrics, values)| {
                metrics
                    .iter()
                    .zip(values)
                    .map(move |(m, v)| (format!("{prefix}{}", m.name), v.to_string()))
            });
        flat(entries, json)
    }
}

/// The `REPLSTATUS` reply: the `repl_` section without its prefix,
/// with role and phase spelled out in the human form, then the
/// propagated commit-timestamp lag in seconds (`lag_seconds`, so
/// `rql replstatus --json | jq .lag_seconds` needs no unit conversion).
pub fn render_replstatus(s: &ReplSnapshot, json: bool) -> String {
    let entries = ReplSnapshot::METRICS.iter().zip(s.values()).map(|(m, v)| {
        let word = if json { None } else { state_word(m.name, v) };
        (
            m.name.to_owned(),
            word.map_or_else(|| v.to_string(), str::to_owned),
        )
    });
    let lag_seconds = format!("{:.6}", s.lag_micros as f64 / 1e6);
    flat(
        entries.chain([("lag_seconds".to_owned(), lag_seconds)]),
        json,
    )
}

fn state_word(name: &str, value: u64) -> Option<&'static str> {
    use rql_repl::{phase, role};
    match (name, value) {
        ("role", role::NONE) => Some("none"),
        ("role", role::LEADER) => Some("leader"),
        ("role", role::FOLLOWER) => Some("follower"),
        ("phase", phase::IDLE) => Some("idle"),
        ("phase", phase::SEEDING) => Some("seeding"),
        ("phase", phase::STREAMING) => Some("streaming"),
        _ => None,
    }
}

/// `key value` lines, or one flat JSON object (every value is a
/// number, so nothing needs quoting).
fn flat(entries: impl IntoIterator<Item = (String, String)>, json: bool) -> String {
    let entries = entries.into_iter();
    if json {
        let parts: Vec<String> = entries.map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", parts.join(","))
    } else {
        entries.map(|(k, v)| format!("{k} {v}\n")).collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use std::time::Duration;

    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_micros(0.50);
        assert!((64..=256).contains(&p50), "p50={p50}");
        let p99 = h.quantile_micros(0.99);
        assert!(p99 <= 256, "p99 covers the 100µs mass, got {p99}");
        let p100 = h.quantile_micros(1.0);
        assert!(p100 >= 32_768, "max sample is 50ms, got {p100}");
        assert!(h.mean_micros() >= 100);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.99), 0);
        assert_eq!(h.mean_micros(), 0);
    }

    #[test]
    fn renders_include_io_memo_and_latency() {
        let m = Metrics::new();
        m.queries_total.inc();
        m.latency.record(Duration::from_micros(10));
        let readings = Readings {
            server: m.snapshot(),
            io: IoStatsSnapshot {
                pagelog_reads: 7,
                ..Default::default()
            },
            memo: MemoStatsSnapshot {
                hits: 5,
                misses: 2,
                ..Default::default()
            },
            standing: StandingSnapshot {
                queries: 2,
                rows_pushed: 9,
                ..Default::default()
            },
            repl: ReplSnapshot {
                role: 1,
                segments_shipped: 3,
                ..Default::default()
            },
        };
        let human = readings.render(false);
        assert!(human.contains("queries_total 1"));
        assert!(human.contains("io_pagelog_reads 7"));
        assert!(human.contains("memo_hits 5"));
        assert!(human.contains("memo_misses 2"));
        assert!(human.contains("memo_spill_errors 0"));
        assert!(human.contains("latency_p99_micros"));
        assert!(human.contains("standing_queries 2"));
        assert!(human.contains("standing_rows_pushed 9"));
        assert!(human.contains("repl_role 1"));
        assert!(human.contains("repl_segments_shipped 3"));
        let json = readings.render(true);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"queries_total\":1"));
        assert!(json.contains("\"io_pagelog_reads\":7"));
        assert!(json.contains("\"memo_hits\":5"));
        assert!(json.contains("\"memo_evictions\":0"));
        assert!(json.contains("\"standing_queries\":2"));
        assert!(json.contains("\"standing_push_p99_micros\":0"));
        assert!(json.contains("\"repl_role\":1"));
        assert!(json.contains("\"repl_lag_bytes\":0"));
    }

    #[test]
    fn gauge_dec_saturates() {
        let m = Metrics::new();
        m.queue_depth.dec();
        assert_eq!(m.queue_depth.get(), 0);
    }
}
