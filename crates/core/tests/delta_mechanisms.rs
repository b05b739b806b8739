//! Differential tests for the delta-driven iteration drivers: under
//! `DeltaPolicy::Auto` every mechanism must produce a result table
//! byte-identical to the sequential mechanism's, while fetching fewer
//! pages on closely-spaced snapshot sets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rql::{
    parse_maintain, AggOp, DeltaPolicy, Iteration, Maintainer, MechanismCall, MechanismKind,
    RqlSession, Value,
};
use rql_memo::{MemoConfig, MemoStore};
use std::sync::Arc;

const QS: &str = "SELECT snap_id FROM SnapIds";

/// Deterministic churn history: 8 snapshots over a two-column table.
fn history() -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
        .unwrap();
    for s in 0..8i64 {
        session.execute("DELETE FROM m").unwrap();
        for g in 0..12i64 {
            if (g + s) % 5 != 0 {
                session
                    .execute(&format!("INSERT INTO m VALUES ({g}, {})", g * 10 + s))
                    .unwrap();
            }
        }
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    }
    session
}

/// Assert a delta run leaves the same table bytes as the sequential run,
/// comparing full contents in insertion order (no ORDER BY): identity
/// requires matching row order, values, *and* column names.
fn assert_tables_identical(session: &RqlSession, seq_table: &str, delta_table: &str) {
    let a = session
        .query_aux(&format!("SELECT * FROM {seq_table}"))
        .unwrap();
    let b = session
        .query_aux(&format!("SELECT * FROM {delta_table}"))
        .unwrap();
    assert_eq!(a.columns, b.columns, "{seq_table} vs {delta_table}");
    assert_eq!(a.rows, b.rows, "{seq_table} vs {delta_table}");
}

#[test]
fn delta_collate_matches_sequential() {
    let session = history();
    for (i, qq) in [
        "SELECT grp, v FROM m",
        "SELECT v FROM m WHERE grp > 4",
        "SELECT grp, SUM(v) FROM m GROUP BY grp",
        "SELECT current_snapshot() AS sid, grp FROM m WHERE v % 2 = 0",
        "SELECT COUNT(*) FROM m",
    ]
    .iter()
    .enumerate()
    {
        let (seq_t, delta_t) = (format!("c_seq_{i}"), format!("c_delta_{i}"));
        session.collate_data(QS, qq, &seq_t).unwrap();
        let report = session
            .run_mechanism(
                &MechanismCall::new(MechanismKind::Collate, QS, qq, &delta_t, None),
                DeltaPolicy::Forced.into(),
            )
            .unwrap();
        assert_tables_identical(&session, &seq_t, &delta_t);
        let stats = report.accumulated_stats();
        assert_eq!(
            stats.delta_eligible,
            report.iterations.len() as u64,
            "every iteration of {qq} should take the delta path"
        );
    }
}

#[test]
fn delta_agg_var_matches_sequential_for_all_inner_aggregates() {
    let session = history();
    for (i, qq) in [
        "SELECT SUM(v) FROM m",
        "SELECT COUNT(*) FROM m",
        "SELECT COUNT(v) FROM m WHERE grp < 9",
        "SELECT AVG(v) FROM m",
        "SELECT MIN(v) FROM m WHERE grp > 2",
        "SELECT MAX(v + grp) FROM m",
        // Not a bare inner aggregate: exercised via the pipeline mode.
        "SELECT SUM(v) + 0 FROM m",
        "SELECT grp FROM m WHERE grp = 7 AND v % 10 = 3",
    ]
    .iter()
    .enumerate()
    {
        for func in [AggOp::Sum, AggOp::Min, AggOp::Avg] {
            let (seq_t, delta_t) = (
                format!("v_seq_{i}_{func:?}"),
                format!("v_delta_{i}_{func:?}"),
            );
            session
                .aggregate_data_in_variable(QS, qq, &seq_t, func)
                .unwrap();
            session
                .run_mechanism(
                    &MechanismCall::new(
                        MechanismKind::AggVar,
                        QS,
                        qq,
                        &delta_t,
                        Some(&func.to_string()),
                    ),
                    DeltaPolicy::Forced.into(),
                )
                .unwrap();
            assert_tables_identical(&session, &seq_t, &delta_t);
        }
    }
}

#[test]
fn delta_agg_var_matches_on_randomized_histories() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xD17A + seed);
        let session = RqlSession::with_defaults().unwrap();
        session
            .execute("CREATE TABLE r (k INTEGER, v INTEGER, t TEXT)")
            .unwrap();
        let mut next_key = 0i64;
        for _ in 0..10 {
            for _ in 0..rng.random_range(1..8) {
                match rng.random_range(0..3) {
                    0 => {
                        let v: i64 = rng.random_range(-1000..1000);
                        session
                            .execute(&format!(
                                "INSERT INTO r VALUES ({next_key}, {v}, 'x{}')",
                                v.abs() % 7
                            ))
                            .unwrap();
                        next_key += 1;
                    }
                    1 if next_key > 0 => {
                        let k = rng.random_range(0..next_key);
                        let v = rng.random_range(-1000..1000);
                        session
                            .execute(&format!("UPDATE r SET v = {v} WHERE k = {k}"))
                            .unwrap();
                    }
                    _ if next_key > 0 => {
                        let k = rng.random_range(0..next_key);
                        session
                            .execute(&format!("DELETE FROM r WHERE k = {k}"))
                            .unwrap();
                    }
                    _ => {}
                }
            }
            session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        }
        for (i, qq) in [
            "SELECT SUM(v) FROM r",
            "SELECT AVG(v) FROM r WHERE v > -500",
            // Deletes and updates force MIN/MAX re-folds.
            "SELECT MIN(v) FROM r",
            "SELECT MAX(v) FROM r",
            // TEXT argument: SUM degrades to the pipeline, MIN/MAX stay
            // incremental under the SQL total order.
            "SELECT MIN(t) FROM r",
            "SELECT COUNT(*) FROM r",
        ]
        .iter()
        .enumerate()
        {
            let (seq_t, delta_t) = (format!("r_seq_{i}"), format!("r_delta_{i}"));
            session.drop_result_table(&seq_t).unwrap();
            session.drop_result_table(&delta_t).unwrap();
            session
                .aggregate_data_in_variable(QS, qq, &seq_t, AggOp::Sum)
                .unwrap();
            session
                .run_mechanism(
                    &MechanismCall::new(MechanismKind::AggVar, QS, qq, &delta_t, Some("sum")),
                    DeltaPolicy::Forced.into(),
                )
                .unwrap();
            assert_tables_identical(&session, &seq_t, &delta_t);
        }
    }
}

#[test]
fn delta_degrades_cleanly_on_real_sums() {
    let session = RqlSession::with_defaults().unwrap();
    session.execute("CREATE TABLE f (v REAL)").unwrap();
    for s in 0..5 {
        session
            .execute(&format!("INSERT INTO f VALUES ({s}.25), ({s}.5)"))
            .unwrap();
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    }
    for (i, qq) in ["SELECT SUM(v) FROM f", "SELECT AVG(v) FROM f"]
        .iter()
        .enumerate()
    {
        let (seq_t, delta_t) = (format!("f_seq_{i}"), format!("f_delta_{i}"));
        session
            .aggregate_data_in_variable(QS, qq, &seq_t, AggOp::Sum)
            .unwrap();
        session
            .run_mechanism(
                &MechanismCall::new(MechanismKind::AggVar, QS, qq, &delta_t, Some("sum")),
                DeltaPolicy::Auto.into(),
            )
            .unwrap();
        assert_tables_identical(&session, &seq_t, &delta_t);
    }
}

/// Closely-spaced snapshots: the delta path must skip unchanged pages
/// and fetch strictly fewer pages than the sequential path does. Two
/// identically-seeded sessions keep cache warm-up effects from
/// contaminating the comparison.
#[test]
fn delta_skips_pages_and_fetches_less() {
    let build = || {
        let session = RqlSession::with_defaults().unwrap();
        session
            .execute("CREATE TABLE big (k INTEGER, v INTEGER)")
            .unwrap();
        // Enough rows to span several heap pages at the default page size.
        for chunk in 0..30i64 {
            let values: Vec<String> = (chunk * 100..(chunk + 1) * 100)
                .map(|k| format!("({k}, {})", k * 3))
                .collect();
            session
                .execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
        }
        session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        // Small, localized churn between snapshots.
        for s in 1..6i64 {
            session
                .execute(&format!("UPDATE big SET v = {s} WHERE k = {}", s * 7))
                .unwrap();
            session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
        }
        session
    };
    let qq = "SELECT k, v FROM big WHERE v % 2 = 1";

    let seq_session = build();
    let seq = seq_session.collate_data(QS, qq, "io_seq").unwrap();
    let delta_session = build();
    let delta = delta_session
        .run_mechanism(
            &MechanismCall::new(MechanismKind::Collate, QS, qq, "io_delta", None),
            DeltaPolicy::Forced.into(),
        )
        .unwrap();

    let a = seq_session.query_aux("SELECT * FROM io_seq").unwrap();
    let b = delta_session.query_aux("SELECT * FROM io_delta").unwrap();
    assert_eq!(a.columns, b.columns);
    assert_eq!(a.rows, b.rows);

    let seq_stats = seq.accumulated_stats();
    let delta_stats = delta.accumulated_stats();
    assert_eq!(seq_stats.pages_skipped_delta, 0);
    assert_eq!(seq_stats.delta_eligible, 0);
    assert!(
        delta_stats.pages_skipped_delta > 0,
        "unchanged heap pages should be served from the delta cache, got {delta_stats:?}"
    );
    assert_eq!(delta_stats.delta_eligible, delta.iterations.len() as u64);
    assert!(
        delta_stats.io.total_fetches() < seq_stats.io.total_fetches(),
        "delta fetched {} pages, sequential {}",
        delta_stats.io.total_fetches(),
        seq_stats.io.total_fetches()
    );
}

#[test]
fn forced_policy_errors_on_ineligible_shapes() {
    let session = history();
    session.execute("CREATE TABLE other (grp INTEGER)").unwrap();
    session.execute("BEGIN; COMMIT WITH SNAPSHOT;").unwrap();
    // `other` exists only in the newest snapshot; restrict join-shape Qs
    // to it so the sequential fallback can execute at all.
    let max_sid = session
        .query_aux("SELECT MAX(snap_id) FROM SnapIds")
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap();
    let join_qs = format!("SELECT snap_id FROM SnapIds WHERE snap_id = {max_sid}");
    // Join shape.
    assert!(session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                &join_qs,
                "SELECT m.v FROM m, other WHERE m.grp = other.grp",
                "x1",
                None
            ),
            DeltaPolicy::Forced.into()
        )
        .is_err());
    // Iteration-dependent scan filter.
    assert!(session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                QS,
                "SELECT grp FROM m WHERE v < current_snapshot()",
                "x2",
                None
            ),
            DeltaPolicy::Forced.into()
        )
        .is_err());
    // AS OF is reserved for the driver, like the sequential loop.
    assert!(session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                QS,
                "SELECT grp FROM m AS OF 1",
                "x3",
                None
            ),
            DeltaPolicy::Forced.into()
        )
        .is_err());
    // AggregateDataInTable has a delta path now; Forced errors only on
    // ineligible shapes, like CollateData.
    assert!(session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::AggTable,
                QS,
                "SELECT grp, v FROM m WHERE v < current_snapshot()",
                "x4",
                Some("(v,sum)")
            ),
            DeltaPolicy::Forced.into()
        )
        .is_err());
    // CollateDataIntoIntervals still has no delta path and refuses Forced.
    assert!(session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Intervals,
                QS,
                "SELECT grp FROM m",
                "x5",
                None
            ),
            DeltaPolicy::Forced.into()
        )
        .is_err());
    // Eligible AggTable shapes run the pipeline under Forced.
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::AggTable,
                QS,
                "SELECT grp, v FROM m",
                "x6",
                Some("(v,sum)"),
            ),
            DeltaPolicy::Forced.into(),
        )
        .unwrap();
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Intervals,
                QS,
                "SELECT grp FROM m",
                "x7",
                None,
            ),
            DeltaPolicy::Auto.into(),
        )
        .unwrap();
    // Auto silently falls back to the sequential path on a join shape.
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                &join_qs,
                "SELECT m.v FROM m, other WHERE m.grp = other.grp",
                "x8",
                None,
            ),
            DeltaPolicy::Auto.into(),
        )
        .unwrap();
    session
        .collate_data(
            &join_qs,
            "SELECT m.v FROM m, other WHERE m.grp = other.grp",
            "x9",
        )
        .unwrap();
    assert_tables_identical(&session, "x9", "x8");
}

#[test]
fn delta_refuses_existing_result_table() {
    let session = history();
    session
        .aux_db()
        .execute("CREATE TABLE taken (x INTEGER)")
        .unwrap();
    for policy in [DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced] {
        assert!(session
            .run_mechanism(
                &MechanismCall::new(
                    MechanismKind::Collate,
                    QS,
                    "SELECT grp FROM m",
                    "taken",
                    None
                ),
                policy.into()
            )
            .is_err());
        assert!(session
            .run_mechanism(
                &MechanismCall::new(
                    MechanismKind::AggVar,
                    QS,
                    "SELECT COUNT(*) FROM m",
                    "taken",
                    Some("sum")
                ),
                policy.into()
            )
            .is_err());
    }
}

/// Every source the driver offers: sequential, the delta chain under both
/// policies, and parallel on one and three workers.
const SOURCES: [Iteration; 5] = [
    Iteration::SEQUENTIAL,
    Iteration::Delta(DeltaPolicy::Auto),
    Iteration::Delta(DeltaPolicy::Forced),
    Iteration::Parallel(1),
    Iteration::Parallel(3),
];

/// One call per mechanism over `m` (Qq, spec).
const MECHANISMS: [(MechanismKind, &str, Option<&str>); 4] = [
    (MechanismKind::Collate, "SELECT grp, v FROM m", None),
    (MechanismKind::AggVar, "SELECT SUM(v) FROM m", Some("sum")),
    (
        MechanismKind::AggTable,
        "SELECT grp, v FROM m",
        Some("(v,sum)"),
    ),
    (MechanismKind::Intervals, "SELECT grp FROM m", None),
];

/// Whether `iteration` applies to `kind` (CollateDataIntoIntervals has
/// no batch delta path, so `Forced` refuses it).
fn applies(kind: MechanismKind, iteration: Iteration) -> bool {
    kind != MechanismKind::Intervals || iteration != DeltaPolicy::Forced.into()
}

/// The zero-snapshot satellite: when Qs selects no snapshots, every
/// mechanism behaves identically under every source, with or without a
/// memo — CollateData, AggregateDataInTable and CollateDataIntoIntervals
/// create no table, AggregateDataInVariable creates the identity table
/// with the fallback "value" column.
#[test]
fn zero_snapshot_behaviour_is_uniform_across_variants() {
    let session = history();
    let empty_qs = "SELECT snap_id FROM SnapIds WHERE snap_id > 1000000";
    for memo in [false, true] {
        session.set_memo(memo.then(|| Arc::new(MemoStore::new(MemoConfig::default()))));
        for (m, (kind, qq, spec)) in MECHANISMS.into_iter().enumerate() {
            for (s, iteration) in SOURCES.into_iter().enumerate() {
                if !applies(kind, iteration) {
                    continue;
                }
                let t = format!("z_{memo}_{m}_{s}");
                session
                    .run_mechanism(&MechanismCall::new(kind, empty_qs, qq, &t, spec), iteration)
                    .unwrap();
                if kind != MechanismKind::AggVar {
                    assert!(
                        session.aux_db().table_row_count(&t).is_err(),
                        "{kind:?} over zero snapshots must not create {t} ({iteration:?})"
                    );
                    continue;
                }
                let r = session.query_aux(&format!("SELECT * FROM {t}")).unwrap();
                assert_eq!(r.columns, vec!["value".to_string()], "{t}");
                assert_eq!(r.rows, vec![vec![Value::Null]], "{t}");
            }
        }
    }
}

/// Every source, with and without a memo, leaves byte-identical result
/// tables for every mechanism.
#[test]
fn every_source_folds_identical_tables() {
    let session = history();
    for memo in [false, true] {
        session.set_memo(memo.then(|| Arc::new(MemoStore::new(MemoConfig::default()))));
        for (m, (kind, qq, spec)) in MECHANISMS.into_iter().enumerate() {
            let want = format!("s_want_{memo}_{m}");
            session
                .run_mechanism(
                    &MechanismCall::new(kind, QS, qq, &want, spec),
                    Iteration::SEQUENTIAL,
                )
                .unwrap();
            for (s, iteration) in SOURCES.into_iter().enumerate().skip(1) {
                if !applies(kind, iteration) {
                    continue;
                }
                let t = format!("s_{memo}_{m}_{s}");
                session
                    .run_mechanism(&MechanismCall::new(kind, QS, qq, &t, spec), iteration)
                    .unwrap();
                assert_tables_identical(&session, &want, &t);
            }
        }
    }
}

/// A whole computation that fails after creating T drops it again —
/// under every source and in a standing query's seed pass — so a re-run
/// under the same name succeeds.
#[test]
fn failed_run_drops_the_result_table_it_created() {
    let session = history();
    session
        .execute("CREATE TABLE old_t (k INTEGER, v INTEGER)")
        .unwrap();
    session
        .execute("INSERT INTO old_t VALUES (1, 10), (2, 20)")
        .unwrap();
    let first = session.declare_snapshot(None).unwrap();
    session.execute("INSERT INTO old_t VALUES (3, 30)").unwrap();
    session.declare_snapshot(None).unwrap();
    // Qq's table is gone by the last snapshot: the run fails there.
    session.execute("DROP TABLE old_t").unwrap();
    let last = session.declare_snapshot(None).unwrap();
    let failing = format!("SELECT snap_id FROM SnapIds WHERE snap_id >= {first}");
    let passing = format!("{failing} AND snap_id < {last}");
    let calls = [
        (
            MechanismKind::Collate,
            "SELECT k, v FROM old_t",
            None,
            "CollateData",
        ),
        (
            MechanismKind::AggVar,
            "SELECT SUM(v) FROM old_t",
            Some("sum"),
            "AggregateDataInVariable",
        ),
        (
            MechanismKind::AggTable,
            "SELECT k, v FROM old_t",
            Some("(v,sum)"),
            "AggregateDataInTable",
        ),
        (
            MechanismKind::Intervals,
            "SELECT k FROM old_t",
            None,
            "CollateDataIntoIntervals",
        ),
    ];
    for (m, (kind, qq, spec, udf)) in calls.into_iter().enumerate() {
        for (s, iteration) in SOURCES.into_iter().enumerate() {
            if !applies(kind, iteration) {
                continue;
            }
            let t = format!("f_{m}_{s}");
            let err = session
                .run_mechanism(&MechanismCall::new(kind, &failing, qq, &t, spec), iteration)
                .unwrap_err();
            assert!(
                session.aux_db().table_row_count(&t).is_err(),
                "{kind:?} under {iteration:?} left {t} behind after: {err}"
            );
            session
                .run_mechanism(&MechanismCall::new(kind, &passing, qq, &t, spec), iteration)
                .unwrap();
        }
        // The standing query's seed pass is the same driver run.
        let t = format!("f_seed_{m}");
        let spec_arg = spec.map(|s| format!(", '{s}'")).unwrap_or_default();
        let maintain = |qs: &str| {
            let text = format!(
                "MAINTAIN QUERY q{m} AS SELECT {udf}(snap_id, '{qq}', '{t}'{spec_arg}) FROM SnapIds \
                 WHERE {}",
                qs.split_once(" WHERE ").unwrap().1
            );
            parse_maintain(&text).unwrap().unwrap()
        };
        let err = Maintainer::register(&session, maintain(&failing))
            .err()
            .unwrap();
        assert!(
            session.aux_db().table_row_count(&t).is_err(),
            "{kind:?} seed left {t} behind after: {err}"
        );
        Maintainer::register(&session, maintain(&passing)).unwrap();
    }
}

/// Every source reports real per-iteration values: Σ `result_inserts`
/// equals T's row count, fold time is measured, and each iteration's
/// wall covers its fold — the standing seed report included.
#[test]
fn reports_agree_across_sources() {
    let session = history();
    let check = |report: &rql::RqlReport, t: &str| {
        let rows = session.aux_db().table_row_count(t).unwrap();
        assert_eq!(report.total_result_inserts(), rows, "{t}");
        assert!(report.total_udf_time() > std::time::Duration::ZERO, "{t}");
        assert!(
            report.iterations.iter().all(|it| it.wall >= it.udf_time),
            "{t}"
        );
    };
    for (s, iteration) in SOURCES.into_iter().enumerate() {
        let t = format!("r_{s}");
        let report = session
            .run_mechanism(
                &MechanismCall::new(MechanismKind::Collate, QS, "SELECT grp, v FROM m", &t, None),
                iteration,
            )
            .unwrap();
        check(&report, &t);
    }
    let spec = parse_maintain(
        "MAINTAIN QUERY r AS SELECT CollateData(snap_id, 'SELECT grp, v FROM m', 'r_seed') \
         FROM SnapIds",
    )
    .unwrap()
    .unwrap();
    let (_maintainer, report) = Maintainer::register(&session, spec).unwrap();
    check(&report, "r_seed");
}

#[test]
fn off_policy_delegates_to_sequential() {
    let session = history();
    let report = session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                QS,
                "SELECT grp, v FROM m",
                "off_t",
                None,
            ),
            DeltaPolicy::Off.into(),
        )
        .unwrap();
    assert_eq!(report.accumulated_stats().delta_eligible, 0);
    session
        .collate_data(QS, "SELECT grp, v FROM m", "seq_t")
        .unwrap();
    assert_tables_identical(&session, "seq_t", "off_t");
}
