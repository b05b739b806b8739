//! Standing-query maintenance — incremental `Maintainer::advance` vs a
//! full batch recompute per commit, at low churn.
//!
//! The standing-query claim (DESIGN.md §12): once a `MAINTAIN QUERY` is
//! seeded, keeping its result table current costs work proportional to
//! the *changed pages* of each new snapshot, while the naive
//! alternative — re-running the mechanism after every commit — re-scans
//! the entire snapshot history every time. This experiment builds a
//! backlog, registers a collation over it, then drives churn rounds
//! that each touch ~1% of rows; per round it times `advance` on the new
//! snapshot against a fresh batch run over the full history, and checks
//! the maintained table stays identical to the batch result. Results
//! land in `BENCH_standing.json`.

use std::time::{Duration, Instant};

use rql::{parse_maintain, DeltaPolicy, Maintainer, MechanismCall, MechanismKind, RqlSession};
use rql_sqlengine::Result;

use crate::harness::{fast_mode, phase, BENCH_SCHEMA_VERSION};

const QS: &str = "SELECT snap_id FROM SnapIds";
const QQ: &str = "SELECT grp, v FROM m";

/// Session over `m(grp, v)` with `n` rows and `backlog` snapshots of
/// light churn already declared.
fn build_session(n: u64, backlog: u64) -> Result<std::sync::Arc<RqlSession>> {
    let session = RqlSession::with_defaults()?;
    session.execute("CREATE TABLE m (grp INTEGER, v INTEGER)")?;
    let chunk = 200;
    let mut i = 0u64;
    while i < n {
        let hi = (i + chunk).min(n);
        let values: Vec<String> = (i..hi).map(|r| format!("({}, {r})", r % 16)).collect();
        session.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))?;
        i = hi;
    }
    session.declare_snapshot(None)?;
    for round in 1..backlog {
        session.execute(&format!(
            "UPDATE m SET v = v + 1 WHERE grp = {}",
            round % 16
        ))?;
        session.declare_snapshot(None)?;
    }
    Ok(session)
}

/// Same columns, same multiset of rows (collation order is
/// scan-dependent on the delta path).
fn tables_identical(session: &RqlSession, a: &str, b: &str) -> Result<bool> {
    let ra = session.query_aux(&format!("SELECT * FROM {a}"))?;
    let rb = session.query_aux(&format!("SELECT * FROM {b}"))?;
    let key = |rows: &[rql_sqlengine::Row]| {
        let mut k: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        k.sort();
        k
    };
    Ok(ra.columns == rb.columns && key(&ra.rows) == key(&rb.rows))
}

/// Run the experiment, returning a markdown section (and writing
/// `BENCH_standing.json` in the working directory).
pub fn run() -> Result<String> {
    // The incremental-vs-batch ratio tracks history length (batch
    // re-scans every snapshot, advance only the newest), so fast mode
    // keeps a real backlog while shrinking rows and rounds.
    let (n, backlog, rounds): (u64, u64, u64) = if fast_mode() {
        (1200, 8, 5)
    } else {
        (4000, 6, 10)
    };
    let session = build_session(n, backlog)?;
    // Both lanes measure the scan/fold work itself, not memo hits.
    session.set_memo(None);

    let text = format!(
        "MAINTAIN QUERY bench AS SELECT CollateData(snap_id, '{QQ}', 'sm_live') FROM SnapIds"
    );
    let spec = parse_maintain(&text)?.ok_or_else(|| {
        rql_sqlengine::SqlError::Invalid("bench MAINTAIN statement did not parse".into())
    })?;
    let ((mut maintainer, _report), seed_wall) = {
        let t0 = Instant::now();
        let r = Maintainer::register(&session, spec)?;
        (r, t0.elapsed())
    };

    // Low-churn rounds: each touches one of 16 groups (~6% of rows) plus
    // a handful of inserts, then declares a snapshot. Incremental lane
    // folds it in; batch lane recomputes the whole history fresh.
    let mut incremental = Duration::ZERO;
    let mut batch = Duration::ZERO;
    let mut all_identical = true;
    let mut rows_pushed = 0u64;
    for round in 0..rounds {
        session.execute(&format!(
            "UPDATE m SET v = v + 1 WHERE grp = {} AND v < {}",
            round % 16,
            n / 8
        ))?;
        session.execute(&format!("INSERT INTO m VALUES ({}, {round})", round % 16))?;
        let sid = session.declare_snapshot(None)?;

        let (delta, inc_wall) = phase("standing:incremental", || maintainer.advance(sid));
        let delta = delta?;
        rows_pushed += (delta.added.len() + delta.removed.len()) as u64;
        incremental += inc_wall;

        let batch_table = format!("sm_batch_{round}");
        let (res, batch_wall) = phase("standing:batch", || {
            session.run_mechanism(
                &MechanismCall::new(MechanismKind::Collate, QS, QQ, &batch_table, None),
                DeltaPolicy::Off.into(),
            )
        });
        res?;
        batch += batch_wall;
        all_identical &= tables_identical(&session, "sm_live", &batch_table)?;
    }

    let stats = maintainer.stats();
    let inc_ms = incremental.as_secs_f64() * 1e3;
    let batch_ms = batch.as_secs_f64() * 1e3;
    let speedup = batch_ms / inc_ms.max(1e-6);
    let pass = all_identical && speedup >= 5.0;

    let mut out = String::new();
    out.push_str("## Standing queries — incremental maintenance vs per-commit batch recompute\n\n");
    out.push_str(&format!(
        "CollateData over `m({n} rows)`, {backlog}-snapshot backlog seeded in \
         {:.1} ms, then {rounds} low-churn commits. Incremental lane: \
         `Maintainer::advance` per commit. Batch lane: full recompute over the \
         whole history per commit (`DeltaPolicy::Off`).\n\n",
        seed_wall.as_secs_f64() * 1e3
    ));
    out.push_str(
        "| lane | total (ms) | mean/commit (ms) |\n\
         |---|---|---|\n",
    );
    out.push_str(&format!(
        "| batch recompute | {batch_ms:.3} | {:.3} |\n",
        batch_ms / rounds as f64
    ));
    out.push_str(&format!(
        "| incremental advance | {inc_ms:.3} | {:.3} |\n\n",
        inc_ms / rounds as f64
    ));
    out.push_str(&format!(
        "- Incremental vs batch speedup: {speedup:.2}× (target ≥ 5×): {}\n",
        if speedup >= 5.0 { "OK" } else { "UNEXPECTED" }
    ));
    out.push_str(&format!(
        "- Maintained table identical to batch after every commit: {}\n",
        if all_identical { "OK" } else { "UNEXPECTED" }
    ));
    out.push_str(&format!(
        "- Maintenance scan: {} pages scanned, {} skipped; {} result rows pushed\n\n",
        stats.pages_scanned, stats.pages_skipped, rows_pushed
    ));

    let json = format!(
        "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"experiment\":\"standing_maintenance\",\
         \"rows\":{n},\"backlog_snapshots\":{backlog},\"churn_rounds\":{rounds},\
         \"seed_ms\":{:.3},\
         \"batch_total_ms\":{batch_ms:.3},\"incremental_total_ms\":{inc_ms:.3},\
         \"speedup\":{speedup:.3},\
         \"pages_scanned\":{},\"pages_skipped\":{},\"rows_pushed\":{rows_pushed},\
         \"identical_results\":{all_identical},\"pass\":{pass}}}\n",
        seed_wall.as_secs_f64() * 1e3,
        stats.pages_scanned,
        stats.pages_skipped,
    );
    // Best-effort artifact: the markdown is the primary output.
    let _ = std::fs::write("BENCH_standing.json", &json);
    Ok(out)
}
