//! End-to-end benchmark of `rqld` over a durable TPC-H snapshot history.
//!
//! One run builds the history, starts an in-process `rqld` over it, and
//! drives it through `rqld::Client` on two connections for a timed
//! window. Every answer is checked afterwards against a replay on the
//! reopened durable store. With `--trace 1`, the first half of the window
//! also replays each request on an embedded copy of the store and times
//! the calls into each layer from this crate's own code; the second half
//! runs untraced and supplies the counts and the overhead baseline.
//! `README.md` lists every metric and what it should move.

pub mod drive;
pub mod gen;
pub mod oracle;
pub mod setup;
pub mod stats;

use std::io;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use rqld::{Client, ServerHandle};

use crate::drive::{Conn, Ctx, Cursor, Mirror, Observed, Query};
use crate::gen::{dashboard_catalog, warmup_programs, Mech, Rng};
use crate::oracle::{Digest, Oracle};
use crate::setup::{
    build_history, copy_store, open_store, other, start_server, store_bytes, History, RunConfig,
    Workload, LOG_FILES, STANDING_NAME,
};
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio, Counters, Metrics};

/// Set-up repetitions per end-to-end run; `setup_s` is their median.
/// The first builds the store the run measures; the others run after
/// the server has stopped, so the repetitions are spread over the run.
pub const SETUP_REPS: usize = 3;
/// Commits in the write probe of the read-only workloads, sent back to
/// back in one chunk per slice: enough that 30 lie beyond the 90th
/// percentile.
pub const PROBE_COMMITS: usize = 300;
/// The traced run fails when more than this share of the traced
/// programs' client-observed time is left unattributed to a layer.
pub const RECONCILE_BOUND: f64 = 0.25;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the program and commit streams.
    pub seed: u64,
    /// Timed window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for the durable stores.
    pub work_dir: PathBuf,
    /// Source revision, for the record.
    pub rev: String,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer matched the oracle, nothing failed, and (traced) the
    /// layers reconciled with the client time.
    pub correct: bool,
    /// Programs, commits and standing-query checks attempted.
    pub attempted: u64,
    /// Failures, refusals and wrong answers.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// The seeded sub-streams: one per connection, one for the write probe.
fn streams(seed: u64) -> [Rng; 3] {
    let root = Rng::new(seed);
    [root.fork(1), root.fork(2), root.fork(3)]
}

struct Live {
    server: ServerHandle,
    history: History,
    setup_s: f64,
}

/// Build the history and start the server over it, timing the set-up:
/// history build, durable reopen by `rqld::serve`, and `MAINTAIN`
/// seeding. The build's logs are also copied into each of `copies`
/// (untimed) before the server opens them.
fn set_up(dir: &Path, config: &RunConfig, copies: &[&Path]) -> io::Result<Live> {
    let t = Instant::now();
    let history = build_history(dir, config)?;
    let c = Instant::now();
    for to in copies {
        copy_store(dir, to)?;
    }
    let untimed = c.elapsed();
    let server = start_server(dir, config)?;
    if let Some(statement) = config.maintain_statement() {
        let mut c = Client::connect(server.local_addr()).map_err(other)?;
        c.register(&statement).map_err(other)?;
    }
    Ok(Live {
        server,
        history,
        setup_s: (t.elapsed() - untimed).as_secs_f64(),
    })
}

fn counters(client: &mut Client) -> io::Result<Counters> {
    Ok(Counters::parse(&client.metrics(true).map_err(other)?))
}

/// One timed window: the open-loop writer on the first connection when
/// the workload has one, closed-loop readers on the others.
fn window(
    workload: Workload,
    ctx: &Ctx,
    conns: &mut [Conn; 2],
    cursor: &mut Cursor,
    seconds: f64,
    mirror: Option<&Mirror>,
) -> (Observed, f64) {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let rate = ctx.config.writer_rate;
    let [c0, c1] = conns;
    let mut total = Observed::default();
    thread::scope(|scope| {
        let first = scope.spawn(move || {
            if rate > 0.0 {
                c0.write(ctx, cursor, rate, until, mirror)
            } else {
                c0.read(ctx, workload, until, mirror)
            }
        });
        let second = scope.spawn(move || c1.read(ctx, workload, until, mirror));
        for h in [first, second] {
            total.merge(h.join().expect("load thread panicked"));
        }
    });
    let elapsed = total
        .ended
        .map_or(seconds, |end| end.duration_since(start).as_secs_f64());
    (total, elapsed)
}

/// Slices the timed window of an end-to-end run is cut into. Each query
/// metric is taken in every slice and the median over the slices is
/// reported, so a stretch of seconds in which the shared host runs slow
/// moves the slices it falls in, not the reported value. On the
/// read-only workloads the untimed work of the run (oracle replays and
/// the write probe) runs between the slices, which spreads them over
/// twice the window's time.
pub const SLICES: usize = 6;

/// One timed slice: its programs and how long it ran, seconds.
struct Slice {
    queries: Vec<Query>,
    elapsed: f64,
}

/// Median over `slices` of `metric` taken in each.
fn slice_median(slices: &[Slice], metric: impl Fn(&Slice) -> f64) -> f64 {
    median(&slices.iter().map(metric).collect::<Vec<_>>())
}

/// Programs answered per second of a slice.
fn rate(slice: &Slice) -> f64 {
    let answered = slice.queries.iter().filter(|q| q.ms.is_finite()).count();
    answered as f64 / slice.elapsed
}

fn latencies(queries: &[Query], mech: Option<Mech>) -> Vec<f64> {
    queries
        .iter()
        .filter(|q| mech.is_none_or(|m| q.mech == m))
        .map(|q| q.ms)
        .collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Run the benchmark once.
pub fn run(args: &Args) -> io::Result<Outcome> {
    let config = args.workload.config();
    std::fs::create_dir_all(&args.work_dir)?;
    let store_dir = args.work_dir.join("store");
    let mirror_dir = args.work_dir.join("mirror");
    let oracle_dir = args.work_dir.join("oracle");
    let writing = config.writer_rate > 0.0;
    // Read-only end-to-end runs check answers between the timed slices,
    // on a copy of the history; the others after the server has stopped,
    // on its durable store.
    let interleaved = !args.trace && !writing;
    let mut copies = Vec::new();
    if args.trace {
        copies.push(mirror_dir.as_path());
    }
    if interleaved {
        copies.push(oracle_dir.as_path());
    }
    let live = set_up(&store_dir, &config, &copies)?;
    let mut setup_s = vec![live.setup_s];
    let history = live.history;
    let ctx = Ctx::new(live.server.local_addr(), config, &history);
    let [s0, s1, probe_rng] = streams(args.seed);
    let mut conns = [Conn::open(&ctx, 0, s0)?, Conn::open(&ctx, 1, s1)?];
    let mut cursor = Cursor {
        next_delete: history.next_delete,
        next_insert: history.next_insert,
    };
    let mirror = if args.trace {
        let mirror = Mirror::new(open_store(&mirror_dir, config.retro())?, &history);
        for conn in &mut conns {
            conn.mirror = Some(if writing && conn.id == 0 {
                mirror.writer(&config)?
            } else {
                mirror.session()?
            });
        }
        Some(mirror)
    } else {
        None
    };

    // Untimed warm-up on every reading connection.
    let warmup = match args.workload {
        Workload::MemoReplay => dashboard_catalog(config.snapshots),
        _ => warmup_programs(config.snapshots),
    };
    let mut all = Observed::default();
    for conn in conns.iter_mut().skip(usize::from(writing)) {
        all.merge(conn.warm(&ctx, &warmup, mirror.as_ref()));
    }

    let oracle_started = Instant::now();
    let mut oracle = if interleaved {
        let mut oracle = Oracle::open(&oracle_dir, &config)?;
        oracle.check(std::mem::take(&mut all.ledger))?;
        Some(oracle)
    } else {
        None
    };
    let mut oracle_s = oracle_started.elapsed().as_secs_f64();

    let wal = store_dir.join(LOG_FILES[0]);
    let pagelog = store_dir.join(LOG_FILES[1]);
    let mut traced = Observed::default();
    let mut timed = Observed::default();
    let mut probe = Observed::default();
    let mut slices = Vec::new();
    let mut log_growth = (0, 0);
    let mut delta = Counters::default();
    let mut after = Counters::default();
    if args.trace {
        // First half traced on the mirror; second half untraced, for the
        // counts and the overhead baseline.
        let half = args.seconds / 2.0;
        let m = mirror.as_ref();
        (traced, _) = window(args.workload, &ctx, &mut conns, &mut cursor, half, m);
        for conn in &mut conns {
            conn.mirror = None;
        }
        let (wal0, pagelog0) = (file_len(&wal), file_len(&pagelog));
        let before = counters(&mut conns[0].client)?;
        (timed, _) = window(args.workload, &ctx, &mut conns, &mut cursor, half, None);
        after = counters(&mut conns[0].client)?;
        delta = after.delta(&before);
        log_growth = (
            file_len(&wal).saturating_sub(wal0),
            file_len(&pagelog).saturating_sub(pagelog0),
        );
    } else {
        // The read-only workloads price commits with a write probe on the
        // same store, sent in chunks between the slices with no reader
        // beside it.
        let mut probe_rng = probe_rng;
        let seconds = args.seconds / SLICES as f64;
        for _ in 0..SLICES {
            let (mut obs, elapsed) =
                window(args.workload, &ctx, &mut conns, &mut cursor, seconds, None);
            if let Some(oracle) = oracle.as_mut() {
                let t = Instant::now();
                oracle.check(std::mem::take(&mut obs.ledger))?;
                oracle_s += t.elapsed().as_secs_f64();
                std::mem::swap(&mut conns[0].rng, &mut probe_rng);
                probe.merge(conns[0].probe(&ctx, &mut cursor, PROBE_COMMITS / SLICES));
                std::mem::swap(&mut conns[0].rng, &mut probe_rng);
            }
            slices.push(Slice {
                queries: obs.queries.clone(),
                elapsed,
            });
            timed.merge(obs);
        }
    }
    drop(mirror);
    let rss = peak_rss_mb();

    let standing = if config.maintain.is_some() {
        let initial = conns[0].client.subscribe(STANDING_NAME).map_err(other)?;
        Some(Digest::of(initial.tables.iter().map(|t| t.rows.as_slice())))
    } else {
        None
    };
    drop(conns);
    live.server.shutdown();
    live.server.wait();

    let commit_bytes =
        all.commit_bytes + timed.commit_bytes + probe.commit_bytes + traced.commit_bytes;
    let bytes_ratio = ratio(
        store_bytes(&store_dir)? as f64,
        (history.user_bytes + commit_bytes) as f64,
    );

    let mut failed = all.failed + timed.failed + probe.failed + traced.failed;
    let mut attempted = all.attempted + timed.attempted + probe.attempted + traced.attempted;
    let oracle_started = Instant::now();
    let mut oracle = match oracle {
        Some(oracle) => oracle,
        None => Oracle::open(&store_dir, &config)?,
    };
    for ledger in [&mut all, &mut timed, &mut traced].map(|o| std::mem::take(&mut o.ledger)) {
        oracle.check(ledger)?;
    }
    let standing_ok = match (standing, config.maintain_first()) {
        (Some(served), Some(first)) => Some(oracle.standing(first, served)?),
        _ => None,
    };
    oracle_s += oracle_started.elapsed().as_secs_f64();
    failed += oracle.mismatches + u64::from(standing_ok == Some(false));
    attempted += u64::from(standing_ok.is_some());
    let (replayed, mismatches) = (oracle.replayed(), oracle.mismatches);
    drop(oracle);
    if !args.trace {
        for _ in 1..SETUP_REPS {
            let again = set_up(&args.work_dir.join("setup"), &config, &[])?;
            again.server.shutdown();
            again.server.wait();
            setup_s.push(again.setup_s);
        }
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);

    let mut notes = vec![
        format!(
            "config workload={} sf={} snapshots={} churn={} aged={} cache_pages={} \
             memo_budget_bytes={} writer_rate_per_s={} nproc={} seed={} rev={} \
             flush=wal_sync_on_commit=false (commit latency is this host's page cache, \
             not a device's) trace={}",
            args.workload.name(),
            config.sf,
            config.snapshots,
            config.churn,
            config.aged,
            config.cache_pages,
            config.memo_budget,
            config.writer_rate,
            thread::available_parallelism().map_or(1, usize::from),
            args.seed,
            args.rev,
            u8::from(args.trace),
        ),
        format!(
            "oracle replayed={} mismatches={} standing={} seconds={oracle_s:.1}",
            replayed,
            mismatches,
            match standing_ok {
                Some(true) => "match",
                Some(false) => "MISMATCH",
                None => "n/a",
            }
        ),
    ];
    let mut metrics = Metrics::default();
    let mut correct = failed == 0;
    if args.trace {
        let unattributed = layer_metrics(&mut metrics, &traced, &timed, &delta, &after, log_growth);
        if unattributed > RECONCILE_BOUND {
            notes.push(format!(
                "reconciliation FAILED: {unattributed:.4} of traced time unattributed \
                 (bound {RECONCILE_BOUND})"
            ));
            correct = false;
        }
    } else {
        let queries = timed.query_ms();
        let p = |q: f64, mech: Option<Mech>| {
            slice_median(&slices, |s| quantile(&latencies(&s.queries, mech), q))
        };
        let commits = if writing {
            &timed.commits
        } else {
            &probe.commits
        };
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("query_p50_ms", p(0.5, None), "ms");
        metrics.put("query_p90_ms", p(0.9, None), "ms");
        metrics.put("queries_per_s", slice_median(&slices, rate), "1/s");
        for mech in Mech::ALL {
            let name = format!("{}_p50_ms", mech.name());
            metrics.put(&name, p(0.5, Some(mech)), "ms");
        }
        metrics.put("commit_p50_ms", quantile(commits, 0.5), "ms");
        metrics.put("commit_p90_ms", quantile(commits, 0.9), "ms");
        let failed_frac = ratio(failed as f64, attempted as f64);
        metrics.put("ok_frac", 1.0 - failed_frac, "frac");
        metrics.put("store_bytes_per_user_byte", bytes_ratio, "B/B");
        metrics.put("peak_rss_mb", rss, "MB");
        notes.push(format!(
            "samples queries={} commits={} ({}) per_mechanism={:?} setup_reps={:?}",
            queries.len(),
            commits.len(),
            if writing {
                "open-loop writer beside the reader"
            } else {
                "write probe in chunks between the slices, no reader beside it"
            },
            Mech::ALL.map(|m| (m.name(), timed.mech_ms(m).len())),
            setup_s,
        ));
        let show = |metric: &dyn Fn(&Slice) -> f64| -> Vec<String> {
            slices.iter().map(|s| format!("{:.2}", metric(s))).collect()
        };
        notes.push(format!(
            "slices={SLICES} query_p50_ms={:?} query_p90_ms={:?} queries_per_s={:?}",
            show(&|s| quantile(&latencies(&s.queries, None), 0.5)),
            show(&|s| quantile(&latencies(&s.queries, None), 0.9)),
            show(&rate),
        ));
        notes.push(format!(
            "failed_frac={failed_frac} (failed {failed} of {attempted}; \
             reported as ok_frac = 1 - failed_frac)"
        ));
    }
    Ok(Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    })
}

/// Fill the per-layer metrics. Times come from the traced half's spans;
/// counts from the untraced half's wire reports and `METRICS` delta
/// (`gauges` is the `METRICS` reading after it). `log_bytes` is the
/// growth of the WAL and the Pagelog over the untraced half. Returns the
/// unattributed share of the traced client time.
fn layer_metrics(
    m: &mut Metrics,
    traced: &Observed,
    untraced: &Observed,
    delta: &Counters,
    gauges: &Counters,
    log_bytes: (u64, u64),
) -> f64 {
    let s = &traced.spans;
    let per_program = |v: f64| v / s.program.len().max(1) as f64;
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let d = |name: &str| delta.get(name) as f64;
    let w = &untraced.wire;
    let per_run = |v: u64| ratio(v as f64, w.programs as f64);
    let iterations = d("qq_iterations");
    let commits = untraced.commits.len() as f64;
    let unattributed = ratio(s.residue.abs(), s.rtt.iter().sum());
    let late_p90 = if untraced.late.is_empty() {
        0.0
    } else {
        quantile(&untraced.late, 0.9)
    };
    let rows: [(&str, f64, &'static str); 34] = [
        ("rqld.wire_ms_p50", p50(&s.wire), "ms"),
        ("rqld.pre_run_ms_p50", p50(&s.pre_run), "ms"),
        ("rqld.admission_rejected", d("admission_rejected"), "count"),
        ("rql.program_ms_p50", p50(&s.program), "ms"),
        ("rql.self_ms", per_program(s.rql_self), "ms"),
        ("rql.fold_ms", per_program(s.fold), "ms"),
        ("rql.iterations", per_run(w.iterations), "count"),
        ("rql.qq_rows", per_run(w.qq_rows), "count"),
        (
            "rql.result_writes",
            per_program(s.result_writes as f64),
            "count",
        ),
        (
            "memo.hit_ratio",
            ratio(d("memo_hits"), d("memo_hits") + d("memo_misses")),
            "ratio",
        ),
        ("memo.bytes", gauges.get("memo_bytes") as f64, "B"),
        ("memo.evictions", d("memo_evictions"), "count"),
        ("memo.probe_ms", per_program(s.memo_probe), "ms"),
        ("sqlengine.eval_ms", per_program(s.eval), "ms"),
        ("sqlengine.index_build_ms", per_program(s.index), "ms"),
        (
            "sqlengine.pages_per_qq_row",
            ratio(
                d("io_db_reads") + d("io_pagelog_reads") + d("io_cache_hits"),
                d("qq_rows"),
            ),
            "pages",
        ),
        ("sqlengine.dml_ms_p50", p50(&s.dml), "ms"),
        ("retro.spt_build_ms", per_program(s.spt), "ms"),
        (
            "retro.maplog_entries_per_iteration",
            ratio(d("io_maplog_entries_scanned"), iterations),
            "count",
        ),
        ("retro.commit_ms_p50", p50(&s.commit), "ms"),
        (
            "retro.cow_captures_per_commit",
            ratio(d("io_cow_captures"), commits),
            "count",
        ),
        (
            "pagestore.snapshot_cache_hit_ratio",
            ratio(w.cache_hits as f64, (w.cache_hits + w.pagelog_reads) as f64),
            "ratio",
        ),
        (
            "pagestore.pagelog_reads_per_iteration",
            ratio(d("io_pagelog_reads"), iterations),
            "count",
        ),
        (
            "pagestore.cache_evictions",
            d("io_cache_evictions"),
            "count",
        ),
        (
            "pagestore.db_reads_per_iteration",
            ratio(d("io_db_reads"), iterations),
            "count",
        ),
        ("pagestore.pages_pruned", d("io_pages_pruned"), "count"),
        (
            "pagestore.wal_bytes_per_commit",
            ratio(log_bytes.0 as f64, commits),
            "B",
        ),
        (
            "pagestore.pagelog_bytes_per_commit",
            ratio(log_bytes.1 as f64, commits),
            "B",
        ),
        ("standing.maintain_us_mean", mean(&s.maintain_us), "us"),
        (
            "standing.skip_ratio",
            ratio(
                d("standing_pages_skipped"),
                d("standing_pages_scanned") + d("standing_pages_skipped"),
            ),
            "ratio",
        ),
        (
            "standing.maintain_errors",
            d("standing_maintain_errors"),
            "count",
        ),
        ("loadgen.late_ms_p90", late_p90, "ms"),
        (
            "trace.overhead_frac",
            ratio(p50(&s.rtt), p50(&untraced.query_ms())) - 1.0,
            "frac",
        ),
        ("trace.unattributed_frac", unattributed, "frac"),
    ];
    for (name, value, unit) in rows {
        m.put(name, value, unit);
    }
    unattributed
}

/// The counts the short mode compares between runs.
pub const COUNTED: [&str; 5] = [
    "io_pagelog_reads",
    "io_cache_evictions",
    "memo_hits",
    "memo_misses",
    "io_cow_captures",
];

/// Short mode: one set-up, one connection, `programs` programs of the
/// workload's stream sent one at a time (on `ingest_mixed`, each after a
/// refresh pair), and the server's counts of [`COUNTED`] over them.
/// With a single client and no timers these repeat exactly.
pub fn counted(args: &Args, programs: usize) -> io::Result<Vec<(&'static str, u64)>> {
    let config = args.workload.config();
    std::fs::create_dir_all(&args.work_dir)?;
    let live = set_up(&args.work_dir.join("store"), &config, &[])?;
    let ctx = Ctx::new(live.server.local_addr(), config, &live.history);
    let [reads, _, writes] = streams(args.seed);
    let mut reader = Conn::open(&ctx, 0, reads)?;
    let mut writer = Conn::open(&ctx, 1, writes)?;
    let mut cursor = Cursor {
        next_delete: live.history.next_delete,
        next_insert: live.history.next_insert,
    };
    let before = counters(&mut reader.client)?;
    let mut out = Observed::default();
    for _ in 0..programs {
        if config.writer_rate > 0.0 {
            out.merge(writer.probe(&ctx, &mut cursor, 1));
        }
        let spec = drive::next_program(args.workload, &config, &mut reader.rng);
        out.merge(reader.warm(&ctx, &[spec], None));
    }
    let delta = counters(&mut reader.client)?.delta(&before);
    drop((reader, writer));
    live.server.shutdown();
    live.server.wait();
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if out.failed > 0 {
        return Err(other(format!(
            "{} request(s) failed in short mode",
            out.failed
        )));
    }
    Ok(COUNTED.map(|name| (name, delta.get(name))).to_vec())
}
