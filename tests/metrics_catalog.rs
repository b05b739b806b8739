//! The metric catalog and the flat renderings, pinned.
//!
//! `tests/golden/metrics_catalog.txt` lists every `METRICS` key with its
//! kind and help text, in wire order, rendered from the registry
//! declarations. Dashboards, scripts and the benchmark key on these
//! names and this order: a key may be added at the end of its section,
//! never renamed, moved or retyped. To regenerate after an intentional
//! addition: `UPDATE_GOLDEN=1 cargo test --test metrics_catalog`.
//!
//! The `*_render*` goldens pin `METRICS` and `REPLSTATUS` output, human
//! and JSON, byte for byte for fixed counter values.

use std::time::Duration;

use rql_memo::MemoStatsSnapshot;
use rql_pagestore::IoStatsSnapshot;
use rql_repl::ReplSnapshot;
use rqld::metrics::render_replstatus;
use rqld::{Metrics, Readings, StandingSnapshot};

const CATALOG_PATH: &str = "tests/golden/metrics_catalog.txt";

fn golden(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn metrics_catalog_matches_golden() {
    let mut got = String::new();
    for (prefix, metrics, _) in Readings::default().sections() {
        for m in metrics {
            let kind = format!("{:?}", m.kind).to_lowercase();
            got.push_str(&format!("{prefix}{} {kind} {}\n", m.name, m.help()));
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(CATALOG_PATH, &got).expect("write golden");
        return;
    }
    assert_eq!(
        got,
        golden(CATALOG_PATH),
        "metric catalog drifted from {CATALOG_PATH}; run with UPDATE_GOLDEN=1 if intentional"
    );
}

/// Every field set to a distinct value, so any reordering shows.
fn fixed_readings() -> Readings {
    let m = Metrics::new();
    let counters = [
        &m.queries_total,
        &m.queries_ok,
        &m.queries_failed,
        &m.queries_cancelled,
        &m.queries_timed_out,
        &m.admission_rejected,
        &m.prepares_total,
        &m.qq_iterations,
        &m.qq_rows,
        &m.pages_skipped_delta,
        &m.pages_pruned_filter,
        &m.rows_returned,
        &m.connections_open,
        &m.connections_total,
        &m.queue_depth,
        &m.in_flight,
    ];
    for (i, c) in counters.into_iter().enumerate() {
        c.add(101 + i as u64);
    }
    for us in [0u64, 10, 100, 1000, 50_000] {
        m.latency.record(Duration::from_micros(us));
    }
    Readings {
        server: m.snapshot(),
        io: IoStatsSnapshot {
            db_reads: 11,
            cache_hits: 22,
            pagelog_reads: 33,
            cow_captures: 44,
            pages_written: 55,
            maplog_entries_scanned: 66,
            cache_evictions: 77,
            pages_pruned: 88,
            snapshots_pruned: 99,
            sidecar_bytes: 110,
        },
        memo: MemoStatsSnapshot {
            hits: 201,
            misses: 202,
            evictions: 203,
            inserts: 204,
            bytes: 205,
            spill_reads: 206,
            spill_writes: 207,
            spill_bytes: 208,
            spill_errors: 209,
        },
        standing: StandingSnapshot {
            queries: 301,
            subscribers: 302,
            snapshots_seeded: 303,
            snapshots_maintained: 304,
            pages_scanned: 305,
            pages_skipped: 306,
            rows_pushed: 307,
            maintain_errors: 308,
            push_count: 309,
            push_mean_micros: 310,
            push_p99_micros: 311,
        },
        repl: leader_repl(),
    }
}

fn leader_repl() -> ReplSnapshot {
    ReplSnapshot {
        role: 1,
        phase: 2,
        followers: 402,
        seeds_served: 403,
        segments_shipped: 404,
        bytes_shipped: 405,
        sheds: 406,
        segments_applied: 407,
        bytes_applied: 408,
        seed_bytes: 409,
        reconnects: 410,
        lag_bytes: 411,
        lag_snapshots: 412,
        lag_micros: 1_234_567,
    }
}

#[test]
fn metrics_renders_are_byte_stable() {
    let readings = fixed_readings();
    assert_eq!(
        readings.render(false),
        golden("tests/golden/metrics_render_human.txt")
    );
    assert_eq!(
        readings.render(true),
        golden("tests/golden/metrics_render.json")
    );
}

#[test]
fn replstatus_renders_are_byte_stable() {
    let leader = leader_repl();
    let follower = ReplSnapshot {
        role: 2,
        phase: 1,
        lag_micros: 250_000,
        ..leader
    };
    let mut got = String::new();
    for s in [&leader, &follower, &ReplSnapshot::default()] {
        got.push_str(&render_replstatus(s, false));
        got.push_str("--\n");
        got.push_str(&render_replstatus(s, true));
        got.push_str("\n--\n");
    }
    assert_eq!(got, golden("tests/golden/replstatus_render.txt"));
}
