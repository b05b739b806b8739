//! Workload configuration and set-up: the durable TPC-H snapshot history
//! and the in-process `rqld` serving it.

use std::io;
use std::path::Path;
use std::sync::Arc;

use rql::{snapids, Database, RqlSession};
use rql_pagestore::FileStorage;
use rql_retro::{RetroConfig, RetroStore};
use rql_tpch::{load_initial, RefreshStream, Tpch, UW30};
use rqld::{serve, ServerConfig, ServerHandle};

use crate::gen::{value_bytes, Shape};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Seeded programs over an aged history larger than the cache.
    HistoryScan,
    /// A fixed dashboard catalog served from the memo.
    MemoReplay,
    /// An open-loop writer beside a closed-loop reader.
    IngestMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HistoryScan,
        Workload::MemoReplay,
        Workload::IngestMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HistoryScan => "history_scan",
            Workload::MemoReplay => "memo_replay",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run configuration.
    pub fn config(self) -> RunConfig {
        let base = RunConfig {
            sf: 0.002,
            snapshots: 40,
            churn: UW30.order_fraction,
            aged: false,
            cache_pages: RetroConfig::new().pager.cache_capacity,
            memo_budget: rql_memo::MemoConfig::default().byte_budget,
            writer_rate: 0.0,
            maintain: None,
        };
        match self {
            Workload::HistoryScan => RunConfig {
                snapshots: 150,
                aged: true,
                cache_pages: 256,
                ..base
            },
            Workload::MemoReplay => base,
            Workload::IngestMixed => RunConfig {
                writer_rate: 10.0,
                maintain: Some(MAINTAIN_FROM),
                ..base
            },
        }
    }
}

/// The standing query registered at `ingest_mixed` set-up maintains the
/// snapshots after this many from the end of the history.
const MAINTAIN_FROM: u64 = 8;

/// Name of the standing query and its table.
pub const STANDING_NAME: &str = "dash";
/// The standing query's result table.
pub const STANDING_TABLE: &str = "standing_dash";
/// The standing query's Qq.
pub const STANDING_QQ: &str =
    "SELECT o_orderstatus, COUNT(*) AS cn, MAX(o_totalprice) AS mp FROM orders GROUP BY o_orderstatus";

/// Everything that shapes one run, printed with every result.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// TPC-H scale factor.
    pub sf: f64,
    /// Snapshots declared by the history build.
    pub snapshots: u64,
    /// Fraction of orders churned between snapshots (UW30).
    pub churn: f64,
    /// Whether one further overwrite cycle runs after the last snapshot,
    /// so the early snapshots live only in the Pagelog.
    pub aged: bool,
    /// Server buffer cache, pages.
    pub cache_pages: usize,
    /// Server memo budget, bytes.
    pub memo_budget: usize,
    /// Writer commits per second (0: no writer).
    pub writer_rate: f64,
    /// Register the standing query over the snapshots after
    /// `snapshots - n`.
    pub maintain: Option<u64>,
}

impl RunConfig {
    /// The TPC-H generator.
    pub fn tpch(&self) -> Tpch {
        Tpch::new(self.sf)
    }

    /// Orders churned per history snapshot.
    pub fn per_snapshot(&self) -> i64 {
        UW30.orders_per_snapshot(&self.tpch())
    }

    /// The order-key layout programs are generated against.
    pub fn shape(&self) -> Shape {
        Shape::new(&self.tpch(), self.per_snapshot(), self.snapshots)
    }

    /// Store configuration for the server (and its embedded mirrors).
    pub fn retro(&self) -> RetroConfig {
        let mut retro = RetroConfig::new();
        retro.pager.cache_capacity = self.cache_pages;
        retro
    }

    /// The `MAINTAIN QUERY` statement, when the workload has one.
    pub fn maintain_statement(&self) -> Option<String> {
        self.maintain.map(|n| {
            format!(
                "MAINTAIN QUERY {STANDING_NAME} AS SELECT AggregateDataInTable(snap_id, \
                 '{STANDING_QQ}', '{STANDING_TABLE}', '(cn,max):(mp,max)') FROM SnapIds \
                 WHERE snap_id > {}",
                self.snapshots - n
            )
        })
    }

    /// First snapshot the standing query covers.
    pub fn maintain_first(&self) -> Option<u64> {
        self.maintain.map(|n| self.snapshots - n + 1)
    }
}

/// What the history build leaves behind.
#[derive(Debug, Clone, Copy)]
pub struct History {
    /// Snapshots declared (ids `1..=snapshots`).
    pub snapshots: u64,
    /// Next order key RF2 deletes.
    pub next_delete: i64,
    /// Next order key RF1 inserts.
    pub next_insert: i64,
    /// Bytes of row values inserted by the load and every refresh pair.
    pub user_bytes: u64,
}

/// The durable log files, named as `rqld` names them.
pub const LOG_FILES: [&str; 3] = ["wal.log", "pagelog.log", "maplog.log"];

/// Open (or create) the durable store in `dir`.
pub fn open_store(dir: &Path, retro: RetroConfig) -> io::Result<Arc<RetroStore>> {
    std::fs::create_dir_all(dir)?;
    let mk = |name: &str| -> io::Result<Arc<FileStorage>> {
        let path = dir.join(name);
        let storage = if path.exists() {
            FileStorage::open(&path)
        } else {
            FileStorage::create(&path)
        };
        storage.map(Arc::new).map_err(io::Error::other)
    };
    RetroStore::open(
        retro,
        mk(LOG_FILES[0])?,
        mk(LOG_FILES[1])?,
        mk(LOG_FILES[2])?,
    )
    .map_err(|e| io::Error::other(e.to_string()))
}

/// A session over `store` whose `SnapIds` lists snapshots `1..=count`,
/// the way `rqld` surfaces a reopened store's history.
pub fn session_over(store: &Arc<RetroStore>, count: u64) -> io::Result<Arc<RqlSession>> {
    let snap = Database::over_store(Arc::clone(store));
    let aux = Database::in_memory(RetroConfig::new());
    let session = RqlSession::over_databases(snap, aux).map_err(other)?;
    for sid in 1..=count {
        snapids::record_snapshot(session.aux_db(), sid, "history", None).map_err(other)?;
    }
    Ok(session)
}

/// Map any displayable error into `io::Error`.
pub fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Bytes of row values `load_initial` inserts at `tpch`'s scale.
fn load_bytes(tpch: &Tpch) -> u64 {
    let mut rows: Vec<Vec<rql::Value>> = Vec::new();
    rows.extend((0..5).map(|k| tpch.region_row(k)));
    rows.extend((0..25).map(|k| tpch.nation_row(k)));
    rows.extend((1..=tpch.part_count()).map(|k| tpch.part_row(k)));
    rows.extend((1..=tpch.supplier_count()).map(|k| tpch.supplier_row(k)));
    rows.extend((1..=tpch.part_count()).flat_map(|k| tpch.partsupp_rows(k)));
    rows.extend((1..=tpch.customer_count()).map(|k| tpch.customer_row(k)));
    rows.extend((1..=tpch.orders_count()).map(|k| tpch.order_row(k)));
    rows.extend((1..=tpch.orders_count()).flat_map(|k| tpch.lineitem_rows(k)));
    rows.iter().map(|r| value_bytes(r)).sum()
}

fn insert_bytes(tpch: &Tpch, keys: std::ops::Range<i64>) -> u64 {
    keys.map(|k| {
        value_bytes(&tpch.order_row(k))
            + tpch
                .lineitem_rows(k)
                .iter()
                .map(|r| value_bytes(r))
                .sum::<u64>()
    })
    .sum()
}

/// Build the durable history in an empty `dir`: load TPC-H, declare
/// `config.snapshots` snapshots with one UW30 refresh pair before each,
/// and, when `config.aged`, run one further overwrite cycle without
/// declaring, so the early snapshots' pages are all archived.
pub fn build_history(dir: &Path, config: &RunConfig) -> io::Result<History> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let store = open_store(dir, RetroConfig::new())?;
    let session = session_over(&store, 0)?;
    let tpch = config.tpch();
    load_initial(session.snap_db(), &tpch).map_err(other)?;
    let mut stream = RefreshStream::new(tpch);
    let per = config.per_snapshot();
    for _ in 0..config.snapshots {
        stream.refresh_pair(session.snap_db(), per).map_err(other)?;
        session.declare_snapshot(None).map_err(other)?;
    }
    if config.aged {
        for _ in 0..UW30.overwrite_cycle() {
            stream.refresh_pair(session.snap_db(), per).map_err(other)?;
        }
    }
    store.flush().map_err(other)?;
    let next_delete = stream.pending_deletes(0).start;
    let next_insert = next_delete + stream.live_orders();
    Ok(History {
        snapshots: config.snapshots,
        next_delete,
        next_insert,
        user_bytes: load_bytes(&tpch) + insert_bytes(&tpch, tpch.orders_count() + 1..next_insert),
    })
}

/// Copy the durable logs of `from` into a fresh `to`.
pub fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for name in LOG_FILES {
        std::fs::copy(from.join(name), to.join(name))?;
    }
    Ok(())
}

/// Total bytes of the durable logs in `dir`.
pub fn store_bytes(dir: &Path) -> io::Result<u64> {
    LOG_FILES
        .iter()
        .map(|name| std::fs::metadata(dir.join(name)).map(|m| m.len()))
        .sum()
}

/// Start `rqld` over the durable store in `dir`: two workers, the
/// configured buffer cache, the shared memo, and the default flush
/// policy (`wal_sync_on_commit = false`).
pub fn start_server(dir: &Path, config: &RunConfig) -> io::Result<ServerHandle> {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_sessions: 16,
            retro: config.retro(),
            memo: true,
            data_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )
}
