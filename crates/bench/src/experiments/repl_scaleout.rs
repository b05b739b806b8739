//! Replication scale-out — aggregate retrospective read throughput of a
//! leader plus two streaming followers vs the leader alone.
//!
//! The replication claim (DESIGN.md §14): because declared snapshots
//! are immutable and the WAL is the database, a follower that has
//! applied the leader's committed segments byte-for-byte answers any
//! retrospective query over its acked snapshots with exactly the
//! leader's result — so read capacity scales with the number of
//! replicas while writes stay single-node. This experiment builds a
//! durable leader store with a snapshot history, seeds two followers
//! over localhost TCP via `rql-repl`, verifies all three nodes return
//! identical Table-1 results, then measures per-node Qq throughput.
//!
//! Throughput methodology: CI runners (and this container) expose a
//! single core, so running three nodes' read loops simultaneously would
//! just time-slice one CPU and show no scaling. Instead each node's
//! throughput is measured sequentially *in isolation* and the cluster
//! figure is their sum — which is what three nodes deliver when each
//! has its own core, since post-seed reads touch only node-local state
//! (no cross-node traffic on the query path). Results land in
//! `BENCH_repl.json`.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rql::{snapids, RqlSession};
use rql_repl::{FollowerConfig, LeaderConfig, ReplFollower, ReplLeader, ReplMetrics};
use rql_retro::{RetroConfig, RetroStore};
use rql_sqlengine::{Database, Result, SqlError};

use crate::harness::{fast_mode, phase, BENCH_SCHEMA_VERSION};

const QS: &str = "SELECT snap_id FROM SnapIds";
const QQ: &str = "SELECT grp, v FROM m";

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path =
            std::env::temp_dir().join(format!("rql-replbench-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::create_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn io_err(e: impl std::fmt::Display) -> SqlError {
    SqlError::Invalid(format!("repl_scaleout: {e}"))
}

fn open_durable(dir: &std::path::Path, config: RetroConfig) -> Result<Arc<RetroStore>> {
    let mk = |name: &str| -> Result<Arc<rql_pagestore::FileStorage>> {
        let path = dir.join(name);
        let storage = if path.exists() {
            rql_pagestore::FileStorage::open(&path)
        } else {
            rql_pagestore::FileStorage::create(&path)
        };
        storage.map(Arc::new).map_err(io_err)
    };
    RetroStore::open(
        config,
        mk("wal.log")?,
        mk("pagelog.log")?,
        mk("maplog.log")?,
    )
    .map_err(io_err)
}

/// Session facade over an already-populated store: shared snap database
/// plus a private aux database whose `SnapIds` enumerates the store's
/// (dense) snapshot ids.
fn session_over(store: &Arc<RetroStore>, config: &RetroConfig) -> Result<Arc<RqlSession>> {
    let snap = Database::over_store(Arc::clone(store));
    let aux = Database::in_memory(config.clone());
    let session = RqlSession::over_databases(snap, aux)?;
    for sid in 1..=store.snapshot_count() {
        snapids::record_snapshot(session.aux_db(), sid, "@0", None)?;
    }
    Ok(session)
}

/// One Qq round: collate the full history into a fresh result table,
/// read it back deterministically, and drop it. Returns the sorted
/// rows for cross-node comparison.
fn qq_round(session: &RqlSession, round: u64) -> Result<Vec<String>> {
    let table = format!("rs_out_{round}");
    session.collate_data(QS, QQ, &table)?;
    let res = session.query_aux(&format!("SELECT grp, v FROM {table}"))?;
    let mut rows: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    session.drop_result_table(&table)?;
    Ok(rows)
}

/// Measure `rounds` Qq rounds on one node in isolation, returning
/// (queries/sec, first round's sorted rows).
fn measure(session: &RqlSession, rounds: u64) -> Result<(f64, Vec<String>)> {
    let first = qq_round(session, 0)?;
    let t0 = Instant::now();
    for round in 1..=rounds {
        qq_round(session, round)?;
    }
    let wall = t0.elapsed().as_secs_f64();
    Ok((rounds as f64 / wall.max(1e-9), first))
}

/// Run the experiment, returning a markdown section (and writing
/// `BENCH_repl.json` in the working directory).
pub fn run() -> Result<String> {
    let (n, backlog, rounds): (u64, u64, u64) = if fast_mode() {
        (800, 6, 4)
    } else {
        (3000, 10, 12)
    };
    let config = RetroConfig::new();

    // Leader: durable store with a churned snapshot history.
    let leader_dir = TempDir::new("leader");
    let leader_store = open_durable(&leader_dir.0, config.clone())?;
    let leader = session_over(&leader_store, &config)?;
    leader.execute("CREATE TABLE m (grp INTEGER, v INTEGER)")?;
    let chunk = 200;
    let mut i = 0u64;
    while i < n {
        let hi = (i + chunk).min(n);
        let values: Vec<String> = (i..hi).map(|r| format!("({}, {r})", r % 16)).collect();
        leader.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))?;
        i = hi;
    }
    leader.declare_snapshot(None)?;
    for round in 1..backlog {
        leader.execute(&format!(
            "UPDATE m SET v = v + 1 WHERE grp = {}",
            round % 16
        ))?;
        leader.declare_snapshot(None)?;
    }
    leader_store.flush()?;

    // Ship the history to two followers over localhost TCP.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let leader_metrics = Arc::new(ReplMetrics::default());
    let seed_t0 = Instant::now();
    let mut repl_leader = ReplLeader::start(
        Arc::clone(&leader_store),
        listener,
        Arc::clone(&leader_metrics),
        LeaderConfig::default(),
    )
    .map_err(io_err)?;
    let follower_dirs = [TempDir::new("f1"), TempDir::new("f2")];
    let mut followers: Vec<ReplFollower> = follower_dirs
        .iter()
        .map(|d| {
            let mut fcfg = FollowerConfig::new(addr.to_string(), d.0.clone());
            fcfg.retro = config.clone();
            ReplFollower::start(fcfg, Arc::new(ReplMetrics::default()))
        })
        .collect();
    let mut fstores = Vec::new();
    for f in &followers {
        let store = f
            .wait_for_store(Duration::from_secs(60))
            .ok_or_else(|| io_err(f.last_error().unwrap_or_else(|| "seed timed out".into())))?;
        fstores.push(store);
    }
    // Wait for every shipped snapshot to be applied and acked.
    let deadline = Instant::now() + Duration::from_secs(60);
    for store in &fstores {
        while store.snapshot_count() < backlog {
            if Instant::now() > deadline {
                return Err(io_err("followers never caught up to the leader"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let seed_wall = seed_t0.elapsed();

    // Per-node isolated throughput; the leader-only baseline is the
    // leader's own figure.
    let (leader_qps, leader_rows) = {
        let (r, _wall) = phase("repl:leader-reads", || measure(&leader, rounds));
        r?
    };
    let mut node_qps = vec![leader_qps];
    let mut identical = true;
    for store in &fstores {
        let session = session_over(store, &config)?;
        let (r, _wall) = phase("repl:follower-reads", || measure(&session, rounds));
        let (qps, rows) = r?;
        identical &= rows == leader_rows;
        node_qps.push(qps);
    }
    for f in &mut followers {
        f.shutdown();
    }
    repl_leader.shutdown();

    let aggregate: f64 = node_qps.iter().sum();
    let speedup = aggregate / leader_qps.max(1e-9);
    let pass = identical && speedup >= 1.8;

    let mut out = String::new();
    out.push_str("## Replication — aggregate read throughput, leader + 2 followers\n\n");
    out.push_str(&format!(
        "CollateData over `m({n} rows)`, {backlog}-snapshot history, seeded to \
         2 followers over TCP in {:.1} ms. Each node's Qq throughput is \
         measured sequentially in isolation ({rounds} full-history collations \
         per node) and the cluster figure is their sum — the single-core-host \
         equivalent of one core per node, valid because post-seed reads touch \
         only node-local state.\n\n",
        seed_wall.as_secs_f64() * 1e3
    ));
    out.push_str(
        "| node | Qq rounds/s |\n\
         |---|---|\n",
    );
    out.push_str(&format!("| leader (baseline) | {leader_qps:.2} |\n"));
    for (i, qps) in node_qps.iter().enumerate().skip(1) {
        out.push_str(&format!("| follower {i} | {qps:.2} |\n"));
    }
    out.push_str(&format!(
        "| **cluster aggregate** | **{aggregate:.2}** |\n\n"
    ));
    out.push_str(&format!(
        "- Aggregate vs leader-only speedup: {speedup:.2}× (target ≥ 1.8×): {}\n",
        if speedup >= 1.8 { "OK" } else { "UNEXPECTED" }
    ));
    out.push_str(&format!(
        "- Identical results on every node for every snapshot: {}\n",
        if identical { "OK" } else { "UNEXPECTED" }
    ));
    out.push_str(&format!(
        "- Leader shipped {} segment(s), {} bytes; served {} seed(s)\n\n",
        leader_metrics
            .segments_shipped
            .load(std::sync::atomic::Ordering::Relaxed),
        leader_metrics
            .bytes_shipped
            .load(std::sync::atomic::Ordering::Relaxed),
        leader_metrics
            .seeds_served
            .load(std::sync::atomic::Ordering::Relaxed),
    ));

    let followers_json: Vec<String> = node_qps.iter().skip(1).map(|q| format!("{q:.3}")).collect();
    let json = format!(
        "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"experiment\":\"repl_scaleout\",\
         \"rows\":{n},\"backlog_snapshots\":{backlog},\"rounds_per_node\":{rounds},\
         \"followers\":2,\"seed_ms\":{:.3},\
         \"leader_qps\":{leader_qps:.3},\"follower_qps\":[{}],\
         \"aggregate_qps\":{aggregate:.3},\"speedup\":{speedup:.3},\
         \"identical_results\":{identical},\"pass\":{pass}}}\n",
        seed_wall.as_secs_f64() * 1e3,
        followers_json.join(","),
    );
    // Best-effort artifact: the markdown is the primary output.
    let _ = std::fs::write("BENCH_repl.json", &json);
    Ok(out)
}
