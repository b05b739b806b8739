//! Tests for the mechanism variants beyond the paper's main line: the
//! sort-merge `AggregateDataInTable` ablation (§3's "costlier"
//! alternative) and the parallel iteration extension (§7's future work).

use rql::{AggOp, Iteration, MechanismCall, MechanismKind, RqlSession, Value};
use std::sync::Arc;

fn history() -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().unwrap();
    session
        .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
        .unwrap();
    // 8 snapshots over 12 groups with churn.
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

#[test]
fn sortmerge_matches_hash_probe_variant() {
    let session = history();
    let qq = "SELECT grp, v FROM m";
    for pairs in [
        vec![("v".to_string(), AggOp::Max)],
        vec![("v".to_string(), AggOp::Sum)],
        vec![("v".to_string(), AggOp::Min)],
        vec![("v".to_string(), AggOp::Avg)],
    ] {
        session.drop_result_table("hash_r").unwrap();
        session.drop_result_table("merge_r").unwrap();
        session
            .aggregate_data_in_table("SELECT snap_id FROM SnapIds", qq, "hash_r", &pairs)
            .unwrap();
        session
            .aggregate_data_in_table_sortmerge("SELECT snap_id FROM SnapIds", qq, "merge_r", &pairs)
            .unwrap();
        let a = session
            .query_aux("SELECT grp, v FROM hash_r ORDER BY grp, v")
            .unwrap();
        let b = session
            .query_aux("SELECT grp, v FROM merge_r ORDER BY grp, v")
            .unwrap();
        assert_eq!(a.rows, b.rows, "pairs {pairs:?}");
    }
}

#[test]
fn parallel_collate_matches_sequential() {
    let session = history();
    let qq = "SELECT grp, v, current_snapshot() AS sid FROM m";
    session
        .collate_data("SELECT snap_id FROM SnapIds", qq, "seq_r")
        .unwrap();
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                "SELECT snap_id FROM SnapIds",
                qq,
                "par_r",
                None,
            ),
            Iteration::Parallel(4),
        )
        .unwrap();
    let a = session
        .query_aux("SELECT grp, v, sid FROM seq_r ORDER BY sid, grp")
        .unwrap();
    let b = session
        .query_aux("SELECT grp, v, sid FROM par_r ORDER BY sid, grp")
        .unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn parallel_agg_var_matches_sequential() {
    let session = history();
    let qq = "SELECT COUNT(*) FROM m";
    session
        .aggregate_data_in_variable("SELECT snap_id FROM SnapIds", qq, "seq_v", AggOp::Sum)
        .unwrap();
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::AggVar,
                "SELECT snap_id FROM SnapIds",
                qq,
                "par_v",
                Some("sum"),
            ),
            Iteration::Parallel(3),
        )
        .unwrap();
    let a = session.query_aux("SELECT * FROM seq_v").unwrap();
    let b = session.query_aux("SELECT * FROM par_v").unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn parallel_with_one_thread_degenerates_gracefully() {
    let session = history();
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                "SELECT snap_id FROM SnapIds WHERE snap_id <= 2",
                "SELECT grp FROM m",
                "one_thread",
                None,
            ),
            Iteration::Parallel(1),
        )
        .unwrap();
    let n = session.aux_db().table_row_count("one_thread").unwrap();
    assert!(n > 0);
}

#[test]
fn parallel_refuses_existing_table() {
    let session = history();
    session.execute("CREATE TABLE noop (x INTEGER)").unwrap();
    session
        .aux_db()
        .execute("CREATE TABLE taken (x INTEGER)")
        .unwrap();
    let err = session.run_mechanism(
        &MechanismCall::new(
            MechanismKind::Collate,
            "SELECT snap_id FROM SnapIds",
            "SELECT grp FROM m",
            "taken",
            None,
        ),
        Iteration::Parallel(2),
    );
    assert!(err.is_err());
}

/// Parallel runs validate Qs like every other source: a non-integer or
/// NULL snapshot id is an error, never a silently dropped snapshot.
#[test]
fn parallel_rejects_non_integer_snapshot_ids() {
    let session = history();
    for qs in ["SELECT 'x' FROM SnapIds", "SELECT NULL FROM SnapIds"] {
        let err = session
            .run_mechanism(
                &MechanismCall::new(
                    MechanismKind::Collate,
                    qs,
                    "SELECT grp FROM m",
                    "bad_qs",
                    None,
                ),
                Iteration::Parallel(2),
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("non-integer snapshot id"),
            "{qs}: {err}"
        );
        assert!(session.aux_db().table_row_count("bad_qs").is_err());
    }
}

#[test]
fn sortmerge_reports_same_totals() {
    let session = history();
    let qq = "SELECT grp, v FROM m";
    let pairs = vec![("v".to_string(), AggOp::Sum)];
    let hash = session
        .aggregate_data_in_table("SELECT snap_id FROM SnapIds", qq, "h2", &pairs)
        .unwrap();
    let merge = session
        .aggregate_data_in_table_sortmerge("SELECT snap_id FROM SnapIds", qq, "m2", &pairs)
        .unwrap();
    assert_eq!(hash.total_qq_rows(), merge.total_qq_rows());
    // SUM updates on every matched record in both variants.
    assert_eq!(hash.total_result_updates(), merge.total_result_updates());
    assert_eq!(hash.total_result_inserts(), merge.total_result_inserts());
    let r = session.query_aux("SELECT COUNT(*) FROM h2").unwrap();
    assert!(r.rows[0][0].as_i64().unwrap() > 0);
    let _ = Value::Null;
}

#[test]
fn parallel_qq_panic_becomes_error_with_snapshot_id() {
    let session = history();
    session.snap_db().register_udf("boom", |args| {
        if args[0].as_i64() == Some(3) {
            panic!("injected failure");
        }
        Ok(Value::Integer(1))
    });
    let err = session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                "SELECT snap_id FROM SnapIds",
                "SELECT boom(grp) FROM m",
                "panic_t",
                None,
            ),
            Iteration::Parallel(4),
        )
        .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("panicked on snapshot"), "{msg}");
    assert!(msg.contains("injected failure"), "{msg}");
    // The panic did not tear down the process or poison the pool: a
    // well-behaved run on the same session still works.
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                "SELECT snap_id FROM SnapIds",
                "SELECT grp FROM m",
                "after_panic",
                None,
            ),
            Iteration::Parallel(4),
        )
        .unwrap();
}
