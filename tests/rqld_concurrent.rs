//! `rqld` end-to-end concurrency tests: N client threads against one
//! in-process server — differential-equal results vs embedded
//! execution, mid-flight cancellation (`RQL300`) and deadline timeout
//! (`RQL301`), graceful-shutdown drain with no lost or duplicated
//! responses, and non-zero delta/latency metrics over `METRICS`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rql::{parse_program, run_program_with_reports, RqlSession};
use rql_repro::rqld::{serve, Client, ClientError, ServerConfig, ServerHandle, SubscriptionEvent};
use rql_repro::trace;
use rql_sqlengine::Value;

/// Shared fixture: a few users logging in and out across snapshots.
const SETUP: &str = "\
CREATE TABLE events (e_user TEXT, e_kind TEXT, e_val INTEGER);
BEGIN;
INSERT INTO events VALUES ('ann', 'login', 1), ('bob', 'login', 2);
COMMIT WITH SNAPSHOT;
BEGIN;
INSERT INTO events VALUES ('cat', 'login', 3), ('ann', 'click', 4);
COMMIT WITH SNAPSHOT;
BEGIN;
DELETE FROM events WHERE e_user = 'bob';
INSERT INTO events VALUES ('dan', 'login', 5);
COMMIT WITH SNAPSHOT;
BEGIN;
INSERT INTO events VALUES ('bob', 'login', 6), ('eve', 'click', 7);
COMMIT WITH SNAPSHOT;
";

/// One query per Table-1 mechanism, each ending in a deterministic
/// `--@aux` read-back of its result table.
const QUERIES: &[&str] = &[
    "SELECT CollateData(snap_id, 'SELECT DISTINCT e_user FROM events', 'CollUsers') \
     FROM SnapIds;\n\
     --@aux\n\
     SELECT DISTINCT e_user FROM CollUsers ORDER BY e_user;",
    "SELECT AggregateDataInVariable(snap_id, 'SELECT COUNT(e_val) FROM events', \
     'MaxRows', 'max') FROM SnapIds;\n\
     --@aux\n\
     SELECT * FROM MaxRows;",
    "SELECT AggregateDataInTable(snap_id, 'SELECT e_user, e_val FROM events', \
     'MinVal', '(e_val,min)') FROM SnapIds;\n\
     --@aux\n\
     SELECT e_user, e_val FROM MinVal ORDER BY e_user;",
    "SELECT CollateDataIntoIntervals(snap_id, 'SELECT e_user FROM events', 'Pres') \
     FROM SnapIds;\n\
     --@aux\n\
     SELECT e_user, start_snapshot, end_snapshot FROM Pres \
     ORDER BY e_user, start_snapshot, end_snapshot;",
];

fn start_server(config: ServerConfig) -> (ServerHandle, SocketAddr) {
    let handle = serve("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr();
    (handle, addr)
}

/// Run `program` on a fresh embedded session that replayed `setup`,
/// returning the final table of each statement as plain row vectors.
fn embedded_rows(session: &Arc<RqlSession>, program: &str) -> Vec<Vec<Vec<Value>>> {
    let program = parse_program(program).expect("parse");
    let run = run_program_with_reports(session, &program).expect("embedded run");
    run.tables
        .iter()
        .map(|t| t.rows.iter().map(|r| r.to_vec()).collect())
        .collect()
}

#[test]
fn concurrent_clients_match_embedded_execution() {
    let (handle, addr) = start_server(ServerConfig::default());

    // Seed the shared store over the wire.
    let mut writer = Client::connect(addr).expect("connect writer");
    writer.run(SETUP).expect("setup");

    // The oracle: one embedded session replaying the same history.
    let oracle = RqlSession::with_defaults().expect("embedded session");
    let _ = embedded_rows(&oracle, SETUP);
    let expected: Vec<Vec<Vec<Vec<Value>>>> =
        QUERIES.iter().map(|q| embedded_rows(&oracle, q)).collect();

    const CLIENTS: usize = 8;
    let results: Vec<Vec<Vec<Vec<Vec<Value>>>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Stagger the mix so threads hit different mechanisms
                    // simultaneously.
                    (0..QUERIES.len())
                        .map(|j| {
                            let q = QUERIES[(i + j) % QUERIES.len()];
                            let result = client.run(q).expect("run");
                            result
                                .tables
                                .iter()
                                .map(|t| t.rows.clone())
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // Exactly one response per issued query (no lost or duplicated
    // responses), and each matches the embedded oracle.
    assert_eq!(results.len(), CLIENTS);
    for (i, per_client) in results.iter().enumerate() {
        assert_eq!(per_client.len(), QUERIES.len());
        for (j, got) in per_client.iter().enumerate() {
            let want = &expected[(i + j) % QUERIES.len()];
            assert_eq!(got, want, "client {i}, query {j} diverged from embedded");
        }
    }

    // The server counted every query (setup + 8 clients × 4 queries).
    let metrics = writer.metrics(false).expect("metrics");
    let get = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
    };
    assert_eq!(get("queries_total"), 1 + (CLIENTS * QUERIES.len()) as u64);
    assert_eq!(get("queries_ok"), get("queries_total"));
    assert_eq!(get("queries_failed"), 0);
    assert!(get("latency_count") > 0);
    assert!(get("latency_p99_micros") > 0);
    assert!(get("qq_iterations") > 0);
    assert!(get("qq_rows") > 0);

    handle.shutdown();
    handle.wait();
}

/// Shared-memo differential: many clients race the same Qq set cold on
/// one server (every lookup/insert interleaving lands on the shared
/// [`MemoStore`]), and a memo-disabled server replays the identical
/// workload — both must agree with the embedded oracle byte-for-byte,
/// and only the memo-enabled server may show memo traffic.
#[test]
fn shared_memo_concurrent_clients_match_memo_off_server() {
    let (memo_handle, memo_addr) = start_server(ServerConfig::default());
    let (plain_handle, plain_addr) = start_server(ServerConfig {
        memo: false,
        ..ServerConfig::default()
    });

    let mut memo_admin = Client::connect(memo_addr).expect("connect");
    memo_admin.run(SETUP).expect("setup");
    let mut plain_admin = Client::connect(plain_addr).expect("connect");
    plain_admin.run(SETUP).expect("setup");

    let oracle = RqlSession::with_defaults().expect("embedded session");
    let _ = embedded_rows(&oracle, SETUP);
    let expected: Vec<Vec<Vec<Vec<Value>>>> =
        QUERIES.iter().map(|q| embedded_rows(&oracle, q)).collect();

    // 8 clients all start on query 0, so the cold memo is raced hard;
    // then each walks the full mechanism mix.
    const CLIENTS: usize = 8;
    let results: Vec<Vec<Vec<Vec<Vec<Value>>>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(memo_addr).expect("connect");
                    QUERIES
                        .iter()
                        .map(|q| {
                            let result = client.run(q).expect("run");
                            result
                                .tables
                                .iter()
                                .map(|t| t.rows.clone())
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for (i, per_client) in results.iter().enumerate() {
        for (j, got) in per_client.iter().enumerate() {
            assert_eq!(got, &expected[j], "memo client {i}, query {j} diverged");
        }
    }

    // The memo-off server serves the same answers.
    for (j, q) in QUERIES.iter().enumerate() {
        let result = plain_admin.run(q).expect("plain run");
        let got: Vec<Vec<Vec<Value>>> = result.tables.iter().map(|t| t.rows.clone()).collect();
        assert_eq!(got, expected[j], "memo-off server, query {j} diverged");
    }

    let get = |metrics: &str, name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
    };
    let memo_metrics = memo_admin.metrics(false).expect("metrics");
    assert!(get(&memo_metrics, "memo_inserts") > 0, "{memo_metrics}");
    assert!(
        get(&memo_metrics, "memo_hits") > 0,
        "8 clients replaying the same Qq must hit the shared memo:\n{memo_metrics}"
    );
    let plain_metrics = plain_admin.metrics(false).expect("metrics");
    assert_eq!(get(&plain_metrics, "memo_hits"), 0);
    assert_eq!(get(&plain_metrics, "memo_inserts"), 0);

    memo_handle.shutdown();
    memo_handle.wait();
    plain_handle.shutdown();
    plain_handle.wait();
}

/// A cross join big enough that cancellation/timeout lands mid-scan
/// (cooperative checkpoints fire every 1024 rows).
fn seed_slow_tables(client: &mut Client) {
    client
        .run("CREATE TABLE big1 (k INTEGER); CREATE TABLE big2 (k INTEGER);")
        .expect("create");
    for chunk in 0..10i64 {
        let values: Vec<String> = (chunk * 200..(chunk + 1) * 200)
            .map(|k| format!("({k})"))
            .collect();
        let values = values.join(", ");
        client
            .run(&format!(
                "INSERT INTO big1 VALUES {values}; INSERT INTO big2 VALUES {values};"
            ))
            .expect("insert");
    }
    client
        .run("BEGIN; COMMIT WITH SNAPSHOT;")
        .expect("snapshot");
}

const SLOW_QUERY: &str = "SELECT COUNT(*) FROM big1, big2 WHERE big1.k + big2.k > 1";

/// The trace ring under 8 writer threads with heavy wraparound: every
/// surviving slot must be a valid, untorn event; sequence numbers must
/// be unique; and the wrap-tolerant stack-discipline checker must not
/// see crossed spans. (This test rides the TSan lane in CI, so the
/// seqlock protocol itself is exercised under the sanitizer.)
#[test]
fn trace_ring_wraparound_under_concurrent_load() {
    use rql_repro::trace::{check_balanced, EventKind, Ring, SpanId};

    const CAPACITY: usize = 512;
    const THREADS: u64 = 8;
    const SPANS_PER_THREAD: u64 = 4_000;

    let ring = Ring::with_capacity(CAPACITY);
    thread::scope(|scope| {
        for t in 0..THREADS {
            let ring = &ring;
            scope.spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    // A matched enter/exit pair per iteration, with a
                    // start stamp unique to (thread, iteration) so the
                    // balance checker can pair them up exactly.
                    let start = t * SPANS_PER_THREAD + i + 1;
                    ring.record(EventKind::Enter, SpanId::Scan, t, start, 0, 0, 0);
                    ring.record(EventKind::Exit, SpanId::Scan, t, start, 7, 0, 0);
                }
            });
        }
    });

    // Every claim was counted, the ring wrapped many times over, and
    // the retained tail fits the capacity.
    assert_eq!(ring.recorded(), THREADS * SPANS_PER_THREAD * 2);
    let events = ring.snapshot();
    assert!(events.len() <= CAPACITY);
    assert!(
        events.len() > CAPACITY / 2,
        "quiescent ring should retain most slots, got {}",
        events.len()
    );

    // No torn reads: sequence numbers are unique and every event decodes
    // to the span the writers recorded.
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), events.len(), "duplicate seq = torn slot");
    for e in &events {
        assert_eq!(e.span, SpanId::Scan);
        assert!(e.tid < THREADS);
        assert!(e.start_nanos >= 1);
    }

    // Wrap-tolerant stack discipline: lost enters are fine, crossings
    // are not.
    check_balanced(&events).expect("balanced under wraparound");
}

#[test]
fn cancel_interrupts_in_flight_query_with_rql300() {
    let (handle, addr) = start_server(ServerConfig::default());
    let mut admin = Client::connect(addr).expect("connect admin");
    seed_slow_tables(&mut admin);

    let victim = Client::connect(addr).expect("connect victim");
    let victim_id = victim.session_id();
    let runner = thread::spawn(move || {
        let mut victim = victim;
        victim.run(SLOW_QUERY)
    });
    // Let the query get into its scan, then cancel from another session.
    thread::sleep(Duration::from_millis(150));
    admin.cancel(victim_id).expect("cancel");

    match runner.join().expect("join") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "RQL300"),
        other => panic!("expected RQL300 cancellation, got {other:?}"),
    }

    let metrics = admin.metrics(false).expect("metrics");
    assert!(
        metrics.contains("queries_cancelled 1"),
        "cancel not counted:\n{metrics}"
    );

    // The cancelled query's span guards must have unwound cleanly: the
    // global trace ring shows no crossed enter/exit pairs (a leaked
    // guard on the cancel path would cross its enclosing span).
    trace::check_balanced(&trace::global().snapshot()).expect("spans balanced after cancel");

    handle.shutdown();
    handle.wait();
}

#[test]
fn deadline_trips_timeout_with_rql301() {
    let (handle, addr) = start_server(ServerConfig {
        query_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    seed_slow_tables(&mut client);

    match client.run(SLOW_QUERY) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "RQL301"),
        other => panic!("expected RQL301 timeout, got {other:?}"),
    }
    // A fresh query on the same connection runs fine: the token re-arms.
    let ok = client
        .run("SELECT COUNT(*) FROM big1")
        .expect("post-timeout");
    assert_eq!(ok.tables[0].rows[0][0], Value::Integer(2000));

    let metrics = client.metrics(false).expect("metrics");
    assert!(
        metrics.contains("queries_timed_out 1"),
        "timeout not counted:\n{metrics}"
    );

    // The watchdog-tripped failure froze a flight-recorder dump, and
    // `STATUS --flight` serves it along with the live ring.
    let flight = client.status_flight().expect("status --flight");
    assert!(
        flight.contains("flight recorder:"),
        "no live flight dump in STATUS --flight:\n{flight}"
    );
    assert!(
        flight.contains("--- last failure ---"),
        "timeout did not freeze a last-failure dump:\n{flight}"
    );
    // Plain STATUS stays a one-liner.
    let status = client.status().expect("status");
    assert!(!status.contains("flight recorder:"), "{status}");

    handle.shutdown();
    handle.wait();
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let (handle, addr) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut admin = Client::connect(addr).expect("connect admin");
    admin.run(SETUP).expect("setup");

    let outcomes: Vec<Result<usize, String>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    match client.run(QUERIES[i % QUERIES.len()]) {
                        Ok(result) => Ok(result.tables.len()),
                        Err(ClientError::Server { code, message }) => {
                            Err(format!("[{code}] {message}"))
                        }
                        Err(e) => Err(format!("{e}")),
                    }
                })
            })
            .collect();
        // Give the queries a moment to be admitted, then drain.
        thread::sleep(Duration::from_millis(50));
        admin.shutdown().expect("shutdown ack");
        workers
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // Every issued query got exactly one terminal answer: either its
    // result (drained) or an admission rejection — never a hang or a
    // dropped response.
    assert_eq!(outcomes.len(), 6);
    for outcome in &outcomes {
        match outcome {
            Ok(tables) => assert!(*tables > 0),
            Err(msg) => assert!(
                msg.starts_with("[RQL503]"),
                "unexpected failure during drain: {msg}"
            ),
        }
    }
    handle.wait();

    // The listener is gone after the drain.
    assert!(Client::connect(addr).is_err());
}

/// The full standing-query wire lifecycle: REGISTER seeds from the
/// backlog, SUBSCRIBE returns the seeded table and then streams one
/// DELTA frame per committed snapshot, UNREGISTER ends the stream with
/// a terminal END frame, and METRICS exposes the maintenance counters.
#[test]
fn standing_query_lifecycle_over_the_wire() {
    let (handle, addr) = start_server(ServerConfig::default());
    let mut admin = Client::connect(addr).expect("connect admin");
    admin.run(SETUP).expect("setup");

    let reg = "MAINTAIN QUERY watch AS SELECT CollateData(snap_id, \
               'SELECT e_user, e_val FROM events', 'Watched') FROM SnapIds";
    let ack = admin.register(reg).expect("register");
    assert!(ack.contains("name=watch"), "{ack}");
    assert!(ack.contains("table=Watched"), "{ack}");
    assert!(ack.contains("snapshots_seeded=4"), "{ack}");

    // Duplicates and ineligible bodies are rejected; the RQL210
    // eligibility code survives the wire as the frame's error code.
    match admin.register(reg) {
        Err(ClientError::Server { message, .. }) => {
            assert!(message.contains("already registered"), "{message}");
        }
        other => panic!("duplicate registration should fail, got {other:?}"),
    }
    match admin.register(
        "MAINTAIN QUERY bad AS SELECT CollateData(snap_id, \
         'SELECT my_udf(e_val) FROM events', 'Bad') FROM SnapIds",
    ) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "RQL210"),
        other => panic!("UDF Qq should be MAINTAIN-ineligible, got {other:?}"),
    }

    // A second connection subscribes: the opening RESULT frame is the
    // seeded table (4 snapshots × 2-3 live rows each).
    let mut sub = Client::connect(addr).expect("connect subscriber");
    let initial = sub.subscribe("watch").expect("subscribe");
    assert_eq!(initial.tables.len(), 1);
    assert!(!initial.tables[0].rows.is_empty());
    let initial_rows = initial.tables[0].rows.len();

    // A commit on the admin connection pushes one DELTA frame carrying
    // exactly the new snapshot's Qq rows.
    admin
        .run(
            "BEGIN;\nINSERT INTO events VALUES ('fay', 'login', 8);\n\
             COMMIT WITH SNAPSHOT;",
        )
        .expect("commit");
    match sub.next_event().expect("delta frame") {
        SubscriptionEvent::Delta(d) => {
            assert_eq!(d.name, "watch");
            assert!(d.snap_id > 0);
            assert!(!d.added.is_empty(), "new snapshot adds rows: {d:?}");
            assert!(d.removed.is_empty(), "collate never removes: {d:?}");
            assert!(
                d.added
                    .iter()
                    .any(|r| r.contains(&Value::Text("fay".into()))),
                "pushed delta should carry the new row: {d:?}"
            );
        }
        other => panic!("expected DELTA, got {other:?}"),
    }

    // Maintenance grew the server-side table: a fresh subscription's
    // opening frame now includes the pushed rows (the table is hosted by
    // the server, not any one connection's aux database).
    let mut late = Client::connect(addr).expect("connect late subscriber");
    let caught_up = late.subscribe("watch").expect("subscribe late");
    assert!(
        caught_up.tables[0].rows.len() > initial_rows,
        "{} vs {initial_rows}",
        caught_up.tables[0].rows.len()
    );

    // METRICS carries the standing counters, and they round-trip as JSON.
    let metrics = admin.metrics(true).expect("metrics json");
    for key in [
        "\"standing_queries\":1",
        "\"standing_subscribers\":2",
        "\"standing_snapshots_seeded\":4",
        "\"standing_snapshots_maintained\":1",
        "\"standing_maintain_errors\":0",
    ] {
        assert!(metrics.contains(key), "missing {key} in:\n{metrics}");
    }
    assert!(
        !metrics.contains("\"standing_rows_pushed\":0,"),
        "maintenance pushed rows:\n{metrics}"
    );

    // UNREGISTER ends the stream with a terminal frame and frees the
    // name; the subscriber's connection is back in request-response mode.
    admin.unregister("watch").expect("unregister");
    match sub.next_event().expect("end frame") {
        SubscriptionEvent::End { name, reason } => {
            assert_eq!(name, "watch");
            assert_eq!(reason, "unregistered");
        }
        other => panic!("expected END, got {other:?}"),
    }
    assert!(sub.status().is_ok(), "connection usable after END");
    match admin.unregister("watch") {
        Err(ClientError::Server { message, .. }) => {
            assert!(message.contains("no standing query"), "{message}");
        }
        other => panic!("double unregister should fail, got {other:?}"),
    }

    handle.shutdown();
    handle.wait();
}

/// Graceful drain closes active subscriptions with a terminal END
/// frame (reason "drained") instead of dropping the socket.
/// Parse a flat integer `METRICS --json` object into `(key, value)`s.
fn metrics_json(client: &mut Client) -> Vec<(String, u64)> {
    let json = client.metrics(true).expect("metrics");
    let body = json.trim_start_matches('{').trim_end_matches('}');
    body.split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').expect("key:value");
            (k.trim_matches('"').to_owned(), v.parse().expect("integer"))
        })
        .collect()
}

#[test]
fn standing_counters_never_fall_after_unregister() {
    let (handle, addr) = start_server(ServerConfig::default());
    let mut admin = Client::connect(addr).expect("connect admin");
    admin.run(SETUP).expect("setup");
    admin
        .register(
            "MAINTAIN QUERY watch AS SELECT CollateData(snap_id, \
             'SELECT e_user, e_val FROM events', 'Watched') FROM SnapIds",
        )
        .expect("register");
    let mut sub = Client::connect(addr).expect("connect subscriber");
    sub.subscribe("watch").expect("subscribe");
    for user in ["fay", "gus"] {
        admin
            .run(&format!(
                "BEGIN;\nINSERT INTO events VALUES ('{user}', 'login', 9);\n\
                 COMMIT WITH SNAPSHOT;"
            ))
            .expect("commit");
        assert!(matches!(
            sub.next_event().expect("delta"),
            SubscriptionEvent::Delta(_)
        ));
    }

    let counters: Vec<String> = rql_repro::rqld::StandingSnapshot::METRICS
        .iter()
        .filter(|m| m.kind == trace::MetricKind::Counter)
        .map(|m| format!("standing_{}", m.name))
        .collect();
    let pick = |all: &[(String, u64)]| -> Vec<(String, u64)> {
        all.iter()
            .filter(|(k, _)| counters.contains(k))
            .cloned()
            .collect()
    };
    let before = pick(&metrics_json(&mut admin));
    assert_eq!(before.len(), counters.len(), "{before:?}");
    let value =
        |all: &[(String, u64)], key: &str| all.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    assert_eq!(value(&before, "standing_snapshots_maintained"), Some(2));
    assert!(value(&before, "standing_rows_pushed") > Some(0));

    admin.unregister("watch").expect("unregister");
    let after_all = metrics_json(&mut admin);
    assert_eq!(value(&after_all, "standing_queries"), Some(0));
    for (key, earlier) in &before {
        let later = value(&after_all, key).expect("counter still exported");
        assert!(later >= *earlier, "{key} fell from {earlier} to {later}");
    }
    handle.shutdown();
    handle.wait();
}

#[test]
fn graceful_drain_ends_subscriptions_with_terminal_frame() {
    let (handle, addr) = start_server(ServerConfig::default());
    let mut admin = Client::connect(addr).expect("connect admin");
    admin.run(SETUP).expect("setup");
    admin
        .register(
            "MAINTAIN QUERY watch AS SELECT CollateData(snap_id, \
             'SELECT e_user FROM events', 'Watched') FROM SnapIds",
        )
        .expect("register");

    let mut sub = Client::connect(addr).expect("connect subscriber");
    let initial = sub.subscribe("watch").expect("subscribe");
    assert!(!initial.tables[0].rows.is_empty());

    admin.shutdown().expect("shutdown ack");
    match sub.next_event().expect("terminal frame before close") {
        SubscriptionEvent::End { name, reason } => {
            assert_eq!(name, "watch");
            assert_eq!(reason, "drained");
        }
        other => panic!("expected END(drained), got {other:?}"),
    }
    handle.wait();
}

#[test]
fn delta_policy_skips_pages_over_the_wire() {
    let (handle, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // A multi-page table with localized churn between snapshots: the
    // forced delta path must serve unchanged heap pages from its cache.
    client
        .run("CREATE TABLE big (k INTEGER, v INTEGER)")
        .expect("create");
    for chunk in 0..30i64 {
        let values: Vec<String> = (chunk * 100..(chunk + 1) * 100)
            .map(|k| format!("({k}, {})", k * 3))
            .collect();
        client
            .run(&format!("INSERT INTO big VALUES {}", values.join(", ")))
            .expect("insert");
    }
    client
        .run("BEGIN; COMMIT WITH SNAPSHOT;")
        .expect("snapshot");
    for s in 1..6i64 {
        client
            .run(&format!(
                "UPDATE big SET v = {s} WHERE k = {};\nBEGIN;\nCOMMIT WITH SNAPSHOT;",
                s * 7
            ))
            .expect("churn");
    }

    let result = client
        .run(
            "--@policy forced\n\
             SELECT CollateData(snap_id, 'SELECT k, v FROM big WHERE v % 2 = 1', 'DeltaT') \
             FROM SnapIds;\n\
             --@aux\n\
             SELECT COUNT(*) FROM DeltaT;",
        )
        .expect("delta collate");
    assert_eq!(result.reports.len(), 1);
    let report = &result.reports[0];
    assert_eq!(report.iterations, 6);
    assert!(
        report.pages_skipped_delta > 0,
        "forced delta should skip unchanged pages, got {report:?}"
    );

    let metrics = client.metrics(true).expect("metrics json");
    assert!(
        !metrics.contains("\"pages_skipped_delta\":0,"),
        "server-side pages_skipped_delta metric stayed zero:\n{metrics}"
    );
    // The pruning counters must round-trip through METRICS as JSON
    // (io_-prefixed, from the shared store's I/O snapshot).
    assert!(
        metrics.contains("\"io_pages_pruned\":"),
        "METRICS json missing io_pages_pruned:\n{metrics}"
    );
    assert!(
        metrics.contains("\"io_sidecar_bytes\":"),
        "METRICS json missing io_sidecar_bytes:\n{metrics}"
    );
    assert!(
        metrics.contains("\"pages_pruned_filter\":"),
        "METRICS json missing pages_pruned_filter:\n{metrics}"
    );
    handle.shutdown();
    handle.wait();
}
