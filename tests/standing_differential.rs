//! Differential tests for standing-query maintenance.
//!
//! The invariant under test: a result table maintained incrementally by
//! a [`Maintainer`] — seeded at registration, then folded forward one
//! commit at a time — is **byte-identical** (same column names, same
//! rows, same row order) to the table a fresh batch run of the same
//! mechanism produces over the same snapshot history, for every
//! mechanism and against batch runs under every `DeltaPolicy`.
//!
//! On top of identity, the pushed [`ResultDelta`] frames must be
//! *sound*: applying the add/remove stream to the seed-time table
//! contents reproduces the final table as a multiset.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use rql::{parse_maintain, DeltaPolicy, Maintainer, MechanismCall, MechanismKind, RqlSession};
use rql_sqlengine::Row;

const QS: &str = "SELECT snap_id FROM SnapIds";

// ---- fixtures -------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64),
    DeleteGrp(u8),
    UpdateGrp(u8, i64),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), -100i64..100).prop_map(|(g, v)| Op::Insert(g % 8, v)),
        any::<u8>().prop_map(|g| Op::DeleteGrp(g % 8)),
        (any::<u8>(), -100i64..100).prop_map(|(g, v)| Op::UpdateGrp(g % 8, v)),
        Just(Op::Snapshot),
    ]
}

fn apply_op(session: &RqlSession, op: &Op) -> Option<u64> {
    match op {
        Op::Insert(g, v) => {
            session
                .execute(&format!("INSERT INTO m VALUES ({g}, {v})"))
                .expect("insert");
            None
        }
        Op::DeleteGrp(g) => {
            session
                .execute(&format!("DELETE FROM m WHERE grp = {g}"))
                .expect("delete");
            None
        }
        Op::UpdateGrp(g, v) => {
            session
                .execute(&format!("UPDATE m SET v = v + {v} WHERE grp = {g}"))
                .expect("update");
            None
        }
        Op::Snapshot => Some(session.declare_snapshot(None).expect("snapshot")),
    }
}

/// Fresh session over `m (grp, v)` with `prefix` already replayed.
fn session_with(prefix: &[Op]) -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().expect("session");
    session
        .execute("CREATE TABLE m (grp INTEGER, v INTEGER)")
        .expect("create");
    let mut snapshots = 0usize;
    for op in prefix {
        if apply_op(&session, op).is_some() {
            snapshots += 1;
        }
    }
    if snapshots == 0 {
        session.declare_snapshot(None).expect("snapshot");
    }
    session
}

/// The standing-query registrations under test, paired with a closure
/// running the equivalent batch mechanism into `table` under `policy`.
struct Mech {
    tag: &'static str,
    maintain: String,
    /// Policies the *batch* comparison runs under. (The maintainer always
    /// uses `Auto`; identity must hold against every batch policy that
    /// supports the mechanism/shape.)
    batch_policies: &'static [DeltaPolicy],
    batch: fn(&RqlSession, &str, DeltaPolicy),
}

fn mechanisms() -> Vec<Mech> {
    vec![
        Mech {
            tag: "collate",
            maintain: "MAINTAIN QUERY w_collate AS SELECT CollateData(snap_id, \
                       'SELECT grp, v FROM m', '{T}') FROM SnapIds"
                .into(),
            batch_policies: &[DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced],
            batch: |s, t, p| {
                s.run_mechanism(
                    &MechanismCall::new(
                        MechanismKind::Collate,
                        QS,
                        "SELECT grp, v FROM m",
                        t,
                        None,
                    ),
                    p.into(),
                )
                .expect("batch collate");
            },
        },
        Mech {
            tag: "aggtable",
            // Qq must be unique per grouping key within a snapshot, so
            // pre-aggregate per snapshot and fold the per-snapshot sums.
            maintain: "MAINTAIN QUERY w_aggtable AS SELECT AggregateDataInTable(snap_id, \
                       'SELECT grp, SUM(v) AS sv FROM m GROUP BY grp', '{T}', '(sv,sum)') \
                       FROM SnapIds"
                .into(),
            batch_policies: &[DeltaPolicy::Off, DeltaPolicy::Auto, DeltaPolicy::Forced],
            batch: |s, t, p| {
                s.run_mechanism(
                    &MechanismCall::new(
                        MechanismKind::AggTable,
                        QS,
                        "SELECT grp, SUM(v) AS sv FROM m GROUP BY grp",
                        t,
                        Some("(sv,sum)"),
                    ),
                    p.into(),
                )
                .expect("batch aggtable");
            },
        },
        Mech {
            tag: "aggvar",
            maintain: "MAINTAIN QUERY w_aggvar AS SELECT AggregateDataInVariable(snap_id, \
                       'SELECT SUM(v) FROM m', '{T}', 'sum') FROM SnapIds"
                .into(),
            batch_policies: &[DeltaPolicy::Off, DeltaPolicy::Auto],
            batch: |s, t, p| {
                s.run_mechanism(
                    &MechanismCall::new(
                        MechanismKind::AggVar,
                        QS,
                        "SELECT SUM(v) FROM m",
                        t,
                        Some("sum"),
                    ),
                    p.into(),
                )
                .expect("batch aggvar");
            },
        },
        Mech {
            tag: "intervals",
            // Sequential-only mechanism: no delta path, never under Forced.
            maintain: "MAINTAIN QUERY w_intervals AS SELECT CollateDataIntoIntervals(snap_id, \
                       'SELECT grp FROM m', '{T}') FROM SnapIds"
                .into(),
            batch_policies: &[DeltaPolicy::Off, DeltaPolicy::Auto],
            batch: |s, t, p| {
                s.run_mechanism(
                    &MechanismCall::new(MechanismKind::Intervals, QS, "SELECT grp FROM m", t, None),
                    p.into(),
                )
                .expect("batch intervals");
            },
        },
    ]
}

fn register(session: &RqlSession, mech: &Mech, table: &str) -> (Maintainer, Vec<Row>) {
    let text = mech.maintain.replace("{T}", table);
    let spec = parse_maintain(&text)
        .expect("parse maintain")
        .expect("is a MAINTAIN statement");
    let (maintainer, _report) = Maintainer::register(session, spec).expect("register");
    let seeded = maintainer.current_result().expect("seed result").rows;
    (maintainer, seeded)
}

fn table_contents(session: &RqlSession, table: &str) -> (Vec<String>, Vec<Row>) {
    let r = session
        .query_aux(&format!("SELECT * FROM {table}"))
        .expect("read back");
    (r.columns, r.rows)
}

fn multiset(rows: &[Row]) -> BTreeMap<String, i64> {
    let mut m = BTreeMap::new();
    for row in rows {
        *m.entry(format!("{row:?}")).or_insert(0) += 1;
    }
    m
}

/// Drive a maintainer through `suffix`, asserting per-frame delta
/// soundness; returns the final maintained contents.
fn drive(
    session: &RqlSession,
    maintainer: &mut Maintainer,
    seeded: Vec<Row>,
    suffix: &[Op],
) -> Vec<Row> {
    let mut shadow = multiset(&seeded);
    for op in suffix {
        let Some(sid) = apply_op(session, op) else {
            continue;
        };
        let delta = maintainer.advance(sid).expect("advance");
        assert_eq!(delta.snap_id, sid);
        for row in &delta.removed {
            let key = format!("{row:?}");
            let n = shadow
                .get_mut(&key)
                .unwrap_or_else(|| panic!("delta removed a row not present in the shadow: {key}"));
            *n -= 1;
            if *n == 0 {
                shadow.remove(&key);
            }
        }
        for row in &delta.added {
            *shadow.entry(format!("{row:?}")).or_insert(0) += 1;
        }
    }
    let table = maintainer.spec().table.clone();
    let (_, rows) = table_contents(session, &table);
    assert_eq!(
        multiset(&rows),
        shadow,
        "replaying the pushed delta frames over the seed must reproduce the \
         maintained table (as a multiset)"
    );
    rows
}

/// The core differential: maintain incrementally through `suffix`, then
/// batch-recompute over the full history and demand byte identity.
fn check_differential(prefix: &[Op], suffix: &[Op]) {
    for mech in mechanisms() {
        let session = session_with(prefix);
        let m_table = format!("m_{}", mech.tag);
        let (mut maintainer, seeded) = register(&session, &mech, &m_table);
        drive(&session, &mut maintainer, seeded, suffix);
        let (m_cols, m_rows) = table_contents(&session, &m_table);
        for &policy in mech.batch_policies {
            let b_table = format!("b_{}_{policy:?}", mech.tag);
            (mech.batch)(&session, &b_table, policy);
            let (b_cols, b_rows) = table_contents(&session, &b_table);
            assert_eq!(m_cols, b_cols, "{}: columns vs batch {policy:?}", mech.tag);
            assert_eq!(
                m_rows, b_rows,
                "{}: maintained table must be byte-identical to batch under {policy:?}",
                mech.tag
            );
        }
    }
}

// ---- deterministic cases --------------------------------------------------

/// Churny history exercising the agg-delta remove/re-aggregate path:
/// group 3 shrinks, group 5 disappears entirely, group 1 only grows.
fn churny_prefix() -> Vec<Op> {
    vec![
        Op::Insert(1, 10),
        Op::Insert(3, 30),
        Op::Insert(3, 31),
        Op::Insert(5, 50),
        Op::Snapshot,
        Op::Insert(1, 11),
        Op::UpdateGrp(3, 5),
        Op::Snapshot,
    ]
}

fn churny_suffix() -> Vec<Op> {
    vec![
        Op::Insert(1, 12),
        Op::DeleteGrp(3),
        Op::Insert(3, 300),
        Op::Snapshot,
        Op::DeleteGrp(5),
        Op::Snapshot,
        // A no-change commit: delta maintenance should skip everything.
        Op::Snapshot,
        Op::UpdateGrp(1, 1),
        Op::Snapshot,
    ]
}

#[test]
fn maintained_equals_batch_on_churny_history() {
    check_differential(&churny_prefix(), &churny_suffix());
}

#[test]
fn maintained_equals_batch_with_empty_backlog() {
    // Register before any data exists beyond the mandatory first snapshot.
    check_differential(&[], &churny_suffix());
}

#[test]
fn out_of_order_and_duplicate_commits_are_ignored() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[0];
    let (mut maintainer, _) = register(&session, mech, "m_dup");
    let sid = session.declare_snapshot(None).expect("snapshot");
    let d1 = maintainer.advance(sid).expect("advance");
    let d2 = maintainer.advance(sid).expect("duplicate advance");
    assert!(d2.added.is_empty() && d2.removed.is_empty());
    let d3 = maintainer.advance(sid - 1).expect("stale advance");
    assert!(d3.added.is_empty() && d3.removed.is_empty());
    let _ = d1;
    let (_, m_rows) = table_contents(&session, "m_dup");
    session
        .run_mechanism(
            &MechanismCall::new(
                MechanismKind::Collate,
                QS,
                "SELECT grp, v FROM m",
                "b_dup",
                None,
            ),
            DeltaPolicy::Auto.into(),
        )
        .expect("batch");
    let (_, b_rows) = table_contents(&session, "b_dup");
    assert_eq!(m_rows, b_rows);
}

#[test]
fn unregister_and_reregister_mid_stream() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[1]; // aggtable: stateful fold
    let (mut first, seeded) = register(&session, mech, "m_first");
    let early: Vec<Op> = churny_suffix().into_iter().take(4).collect();
    drive(&session, &mut first, seeded, &early);
    drop(first); // unregister: maintenance state discarded
    let late: Vec<Op> = churny_suffix().into_iter().skip(4).collect();
    for op in &late {
        apply_op(&session, op);
    }
    // A re-registration under a fresh table seeds from the full backlog
    // and must agree with a batch run.
    let (second, _) = register(&session, mech, "m_second");
    let (_, m_rows) = table_contents(&session, "m_second");
    (mech.batch)(&session, "b_rereg", DeltaPolicy::Auto);
    let (_, b_rows) = table_contents(&session, "b_rereg");
    assert_eq!(m_rows, b_rows);
    assert!(second.stats().snapshots_seeded > 0);
}

#[test]
fn registration_rejects_existing_result_table() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[0];
    let (_first, _) = register(&session, mech, "taken");
    let text = mech.maintain.replace("{T}", "taken");
    let spec = parse_maintain(&text).unwrap().unwrap();
    let Err(err) = Maintainer::register(&session, spec) else {
        panic!("second registration over an existing table must fail")
    };
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn maintenance_stats_accumulate() {
    let session = session_with(&churny_prefix());
    let mech = &mechanisms()[1];
    let (mut maintainer, seeded) = register(&session, mech, "m_stats");
    assert_eq!(maintainer.stats().snapshots_seeded, 2);
    drive(&session, &mut maintainer, seeded, &churny_suffix());
    let stats = maintainer.stats();
    assert_eq!(stats.snapshots_maintained, 4);
    assert!(stats.rows_pushed > 0);
}

// ---- randomized sweep -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized commit streams: any registration point in any history,
    /// maintained tables stay byte-identical to batch recompute for all
    /// mechanisms × batch `DeltaPolicy`s, and delta frames stay sound.
    #[test]
    fn maintained_equals_batch_on_random_histories(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        split in 0usize..40,
    ) {
        let split = split.min(ops.len());
        check_differential(&ops[..split], &ops[split..]);
    }
}
