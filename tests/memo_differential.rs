//! Differential tests for the Qq memoization store.
//!
//! * **Memoized = recomputed** — over arbitrary snapshot histories, a
//!   session with a memo attached must produce byte-identical result
//!   tables to a memo-free session running the same program, across all
//!   four mechanisms and every iteration lane (sequential, delta chain,
//!   parallel), both cold (populating the cache) and warm (serving from
//!   it).
//! * **Spill faults degrade to recompute** — corrupting or outright
//!   breaking the disk-spill tier must never fail a query: lookups
//!   degrade to misses (counted in `spill_errors`) and the results stay
//!   identical to a memo-free run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use rql::{DeltaPolicy, Iteration, MechanismCall, MechanismKind, RqlSession};
use rql_memo::{MemoConfig, MemoStore};
use rql_sqlengine::Row;

// ---- fixtures -------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64),
    Delete(u8),
    Update(u8, i64),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), -1000i64..1000).prop_map(|(k, v)| Op::Insert(k % 12, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 12)),
        (any::<u8>(), -1000i64..1000).prop_map(|(k, v)| Op::Update(k % 12, v)),
        Just(Op::Snapshot),
    ]
}

/// Replay one op sequence into a fresh session, ending with at least one
/// declared snapshot so every mechanism loop has an iteration.
fn build_session(ops: &[Op]) -> Arc<RqlSession> {
    let session = RqlSession::with_defaults().expect("session");
    session
        .execute("CREATE TABLE kv (k INTEGER, v INTEGER)")
        .expect("create");
    let mut declared = 0usize;
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                session
                    .execute(&format!("DELETE FROM kv WHERE k = {k}"))
                    .expect("dedup");
                session
                    .execute(&format!("INSERT INTO kv VALUES ({k}, {v})"))
                    .expect("insert");
            }
            Op::Delete(k) => {
                session
                    .execute(&format!("DELETE FROM kv WHERE k = {k}"))
                    .expect("delete");
            }
            Op::Update(k, v) => {
                session
                    .execute(&format!("UPDATE kv SET v = {v} WHERE k = {k}"))
                    .expect("update");
            }
            Op::Snapshot => {
                session.declare_snapshot(None).expect("snapshot");
                declared += 1;
            }
        }
    }
    if declared == 0 {
        session.declare_snapshot(None).expect("snapshot");
    }
    session
}

const QS: &str = "SELECT snap_id FROM SnapIds";

/// Every lane the driver offers: sequential, the delta chain under both
/// policies, and parallel on one and three workers.
const LANES: [Iteration; 5] = [
    Iteration::SEQUENTIAL,
    Iteration::Delta(DeltaPolicy::Auto),
    Iteration::Delta(DeltaPolicy::Forced),
    Iteration::Parallel(1),
    Iteration::Parallel(3),
];

/// Run every mechanism applicable under `iteration` into uniquely named
/// result tables, returning each table's rows in a canonical order.
fn run_mechanisms(session: &Arc<RqlSession>, iteration: Iteration, tag: &str) -> Vec<Vec<Row>> {
    // (mechanism, Qq, spec, table prefix, canonical order)
    let mechanisms = [
        (
            MechanismKind::Collate,
            "SELECT k, v FROM kv",
            None,
            "c",
            "k, v",
        ),
        (
            MechanismKind::AggVar,
            "SELECT SUM(v) FROM kv",
            Some("max"),
            "a",
            "1",
        ),
        (
            MechanismKind::AggTable,
            "SELECT k, v FROM kv",
            Some("(v,min)"),
            "t",
            "k",
        ),
        (
            MechanismKind::Intervals,
            "SELECT k FROM kv",
            None,
            "i",
            "k, start_snapshot, end_snapshot",
        ),
    ];
    let mut out = Vec::new();
    for (kind, qq, spec, prefix, order) in mechanisms {
        // CollateDataIntoIntervals has no delta path yet: under Forced the
        // pre-flight (correctly) rejects it.
        if kind == MechanismKind::Intervals && iteration == DeltaPolicy::Forced.into() {
            continue;
        }
        let table = format!("{prefix}{tag}");
        session
            .run_mechanism(&MechanismCall::new(kind, QS, qq, &table, spec), iteration)
            .unwrap_or_else(|e| panic!("{kind:?} under {iteration:?}: {e}"));
        let rows = session
            .query_aux(&format!("SELECT * FROM {table} ORDER BY {order}"))
            .expect("read back")
            .rows;
        out.push(rows);
    }
    out
}

// ---- memoized = recomputed ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn memoized_matches_recomputed_for_all_policies(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        for (pi, lane) in LANES.into_iter().enumerate() {
            let plain = build_session(&ops);
            let memoized = build_session(&ops);
            let memo = Arc::new(MemoStore::new(MemoConfig::default()));
            memoized.set_memo(Some(Arc::clone(&memo)));

            let want = run_mechanisms(&plain, lane, &format!("_{pi}_0"));
            // Cold: the memo populates while producing live results.
            let cold = run_mechanisms(&memoized, lane, &format!("_{pi}_0"));
            prop_assert_eq!(&cold, &want, "cold run diverged under {:?}", lane);
            prop_assert!(memo.stats().inserts > 0, "cold run must populate the memo");

            // Warm: the same Qq set replays out of the cache.
            let warm = run_mechanisms(&memoized, lane, &format!("_{pi}_1"));
            let want_again = run_mechanisms(&plain, lane, &format!("_{pi}_1"));
            prop_assert_eq!(&warm, &want_again, "warm run diverged under {:?}", lane);
            prop_assert!(
                memo.stats().hits > 0,
                "warm run must hit the memo under {:?}: {:?}",
                lane,
                memo.stats()
            );
        }
    }
}

// ---- spill-tier fault injection -------------------------------------------

static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rql-memo-{tag}-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const HISTORY: &str = "\
    CREATE TABLE kv (k INTEGER, v INTEGER);\n\
    INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30);\n\
    BEGIN; COMMIT WITH SNAPSHOT;\n\
    UPDATE kv SET v = 21 WHERE k = 2;\n\
    BEGIN; COMMIT WITH SNAPSHOT;\n\
    DELETE FROM kv WHERE k = 3;\n\
    INSERT INTO kv VALUES (4, 40);\n\
    BEGIN; COMMIT WITH SNAPSHOT;";

#[test]
fn corrupted_spill_tier_degrades_to_recompute() {
    let spill = scratch_dir("corrupt");
    let plain = RqlSession::with_defaults().expect("session");
    plain.execute(HISTORY).expect("history");
    let memoized = RqlSession::with_defaults().expect("session");
    memoized.execute(HISTORY).expect("history");

    // A one-byte budget evicts every entry immediately, so warm lookups
    // can only be served by the spill tier.
    let memo = Arc::new(MemoStore::new(MemoConfig {
        byte_budget: 1,
        spill_dir: Some(spill.clone()),
        ..MemoConfig::default()
    }));
    memoized.set_memo(Some(Arc::clone(&memo)));

    let want = run_mechanisms(&plain, DeltaPolicy::Auto.into(), "_s0");
    let cold = run_mechanisms(&memoized, DeltaPolicy::Auto.into(), "_s0");
    assert_eq!(cold, want, "cold run with spill diverged");
    let stats = memo.stats();
    assert!(stats.spill_writes > 0, "spill tier unused: {stats:?}");

    // Sanity: an intact spill tier actually serves the warm run.
    let warm = run_mechanisms(&memoized, DeltaPolicy::Auto.into(), "_s1");
    let want_again = run_mechanisms(&plain, DeltaPolicy::Auto.into(), "_s1");
    assert_eq!(warm, want_again, "warm spill run diverged");
    assert!(
        memo.stats().spill_reads > 0,
        "warm lookups should read the spill tier: {:?}",
        memo.stats()
    );

    // Corrupt every spill file in place, then replay: results must stay
    // identical, with the faults absorbed as counted recomputes.
    let mut corrupted = 0usize;
    for entry in std::fs::read_dir(&spill).expect("read spill dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "memo") {
            std::fs::write(&path, b"garbage, not a memo entry").expect("corrupt");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "no spill files found in {spill:?}");

    let before = memo.stats().spill_errors;
    let after_corruption = run_mechanisms(&memoized, DeltaPolicy::Auto.into(), "_s2");
    let want_final = run_mechanisms(&plain, DeltaPolicy::Auto.into(), "_s2");
    assert_eq!(
        after_corruption, want_final,
        "corrupted spill tier changed results"
    );
    assert!(
        memo.stats().spill_errors > before,
        "corruption must be detected and counted: {:?}",
        memo.stats()
    );

    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn unwritable_spill_tier_never_fails_a_query() {
    // Point the spill tier at a *file*, so every directory create and
    // entry write fails at the filesystem level.
    let bogus = scratch_dir("unwritable").join("not-a-dir");
    std::fs::write(&bogus, b"occupied").expect("placeholder file");

    let plain = RqlSession::with_defaults().expect("session");
    plain.execute(HISTORY).expect("history");
    let memoized = RqlSession::with_defaults().expect("session");
    memoized.execute(HISTORY).expect("history");
    let memo = Arc::new(MemoStore::new(MemoConfig {
        spill_dir: Some(bogus.clone()),
        ..MemoConfig::default()
    }));
    memoized.set_memo(Some(Arc::clone(&memo)));

    let want = run_mechanisms(&plain, DeltaPolicy::Auto.into(), "_u0");
    let got = run_mechanisms(&memoized, DeltaPolicy::Auto.into(), "_u0");
    assert_eq!(got, want, "broken spill tier changed results");
    let stats = memo.stats();
    assert!(
        stats.spill_errors > 0,
        "write failures must be counted, not raised: {stats:?}"
    );

    // Warm runs still work off the in-memory tier.
    let warm = run_mechanisms(&memoized, DeltaPolicy::Auto.into(), "_u1");
    let want_again = run_mechanisms(&plain, DeltaPolicy::Auto.into(), "_u1");
    assert_eq!(warm, want_again);
    assert!(memo.stats().hits > 0);

    let _ = std::fs::remove_dir_all(bogus.parent().expect("parent"));
}
