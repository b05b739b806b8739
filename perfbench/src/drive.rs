//! The load generators: closed-loop readers, the open-loop writer, and
//! the traced mirror that replays every request on an embedded session.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use rql::{
    parse_maintain, parse_program, run_program_with_reports, ExecOutcome, Maintainer, RqlSession,
};
use rql_memo::{MemoConfig, MemoStore};
use rql_retro::RetroStore;
use rqld::{Client, WireResult};

use crate::gen::{
    commit_orders, dashboard_catalog, join_statements, recent_program, refresh_statements,
    scan_program, Mech, ProgramSpec, Rng, Shape,
};
use crate::oracle::{Digest, Ledger};
use crate::setup::{other, session_over, History, RunConfig, Workload};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the load generators share.
pub struct Ctx {
    /// The server.
    pub addr: SocketAddr,
    /// Run configuration.
    pub config: RunConfig,
    /// Order-key layout for literals.
    pub shape: RwLock<Shape>,
    /// Latest snapshot readers may name (the writer raises it once a
    /// commit is acknowledged, and mirrored when tracing).
    pub latest: AtomicU64,
}

impl Ctx {
    /// Context over a freshly built history.
    pub fn new(addr: SocketAddr, config: RunConfig, history: &History) -> Ctx {
        Ctx {
            addr,
            config,
            shape: RwLock::new(config.shape()),
            latest: AtomicU64::new(history.snapshots),
        }
    }
}

/// Counts summed from the `WireReport`s of answered programs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireSums {
    /// Programs answered.
    pub programs: u64,
    /// Mechanism iterations.
    pub iterations: u64,
    /// Qq rows.
    pub qq_rows: u64,
    /// Pagelog reads.
    pub pagelog_reads: u64,
    /// Buffer-cache hits.
    pub cache_hits: u64,
}

impl WireSums {
    fn add(&mut self, r: &WireResult) {
        self.programs += 1;
        for rep in &r.reports {
            self.iterations += rep.iterations;
            self.qq_rows += rep.qq_rows;
            self.pagelog_reads += rep.pagelog_reads;
            self.cache_hits += rep.cache_hits;
        }
    }

    fn merge(&mut self, o: &WireSums) {
        self.programs += o.programs;
        self.iterations += o.iterations;
        self.qq_rows += o.qq_rows;
        self.pagelog_reads += o.pagelog_reads;
        self.cache_hits += o.cache_hits;
    }
}

/// Benchmark-side spans of the traced run, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Client round trip per program.
    pub rtt: Vec<f64>,
    /// Round trip minus the server's own elapsed time.
    pub wire: Vec<f64>,
    /// Server elapsed minus the embedded program time.
    pub pre_run: Vec<f64>,
    /// Embedded `run_program_with_reports` time per program.
    pub program: Vec<f64>,
    /// Program time not inside any iteration (Qs, parse, finalize).
    pub rql_self: f64,
    /// Σ `udf_time`.
    pub fold: f64,
    /// Σ `eval`.
    pub eval: f64,
    /// Σ `index_creation`.
    pub index: f64,
    /// Σ `spt_build`.
    pub spt: f64,
    /// Σ wall − fold of memo-served iterations.
    pub memo_probe: f64,
    /// Iteration wall not covered by the parts above.
    pub residue: f64,
    /// Result-table inserts plus updates.
    pub result_writes: u64,
    /// Σ DML statement time per commit.
    pub dml: Vec<f64>,
    /// `COMMIT WITH SNAPSHOT` time per commit.
    pub commit: Vec<f64>,
    /// `Maintainer::advance` time per commit, microseconds.
    pub maintain_us: Vec<f64>,
}

impl Spans {
    fn merge(&mut self, o: Spans) {
        self.rtt.extend(o.rtt);
        self.wire.extend(o.wire);
        self.pre_run.extend(o.pre_run);
        self.program.extend(o.program);
        self.rql_self += o.rql_self;
        self.fold += o.fold;
        self.eval += o.eval;
        self.index += o.index;
        self.spt += o.spt;
        self.memo_probe += o.memo_probe;
        self.residue += o.residue;
        self.result_writes += o.result_writes;
        self.dml.extend(o.dml);
        self.commit.extend(o.commit);
        self.maintain_us.extend(o.maintain_us);
    }
}

/// One timed program.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Its mechanism.
    pub mech: Mech,
    /// Client-observed latency, ms (`+∞` for a failure).
    pub ms: f64,
    /// When the answer (or the failure) came back.
    pub done: Instant,
}

/// What one connection (or a whole window) observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Timed programs.
    pub queries: Vec<Query>,
    /// Commit latency from the scheduled send time, ms.
    pub commits: Vec<f64>,
    /// How late each commit was sent, ms.
    pub late: Vec<f64>,
    /// Programs and commits attempted.
    pub attempted: u64,
    /// Programs and commits that failed or were refused.
    pub failed: u64,
    /// Counts from the wire reports.
    pub wire: WireSums,
    /// Spans (traced run only).
    pub spans: Spans,
    /// Answers for the oracle.
    pub ledger: Ledger,
    /// User bytes committed.
    pub commit_bytes: u64,
    /// When the last request of the window completed.
    pub ended: Option<Instant>,
}

impl Observed {
    /// Merge another connection's observations.
    pub fn merge(&mut self, o: Observed) {
        self.queries.extend(o.queries);
        self.commits.extend(o.commits);
        self.late.extend(o.late);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wire.merge(&o.wire);
        self.spans.merge(o.spans);
        self.ledger.merge(o.ledger);
        self.commit_bytes += o.commit_bytes;
        self.ended = self.ended.max(o.ended);
    }

    /// Latencies of answered and failed programs, ms.
    pub fn query_ms(&self) -> Vec<f64> {
        self.queries.iter().map(|q| q.ms).collect()
    }

    /// Latencies of one mechanism's programs, ms.
    pub fn mech_ms(&self, mech: Mech) -> Vec<f64> {
        self.queries
            .iter()
            .filter(|q| q.mech == mech)
            .map(|q| q.ms)
            .collect()
    }
}

/// The embedded copy of the store that the traced run replays every
/// request on, with a memo store of its own as the server has.
pub struct Mirror {
    store: Arc<RetroStore>,
    memo: Arc<MemoStore>,
    /// Latest snapshot committed on the mirror.
    committed: AtomicU64,
}

impl Mirror {
    /// Mirror over an opened copy of the history.
    pub fn new(store: Arc<RetroStore>, history: &History) -> Mirror {
        Mirror {
            store,
            memo: Arc::new(MemoStore::new(MemoConfig::default())),
            committed: AtomicU64::new(history.snapshots),
        }
    }

    /// A reader session over the mirror.
    pub fn session(&self) -> std::io::Result<MirrorSession> {
        let known = self.committed.load(Ordering::Acquire);
        let session = session_over(&self.store, known)?;
        session.set_memo(Some(Arc::clone(&self.memo)));
        Ok(MirrorSession {
            session,
            known,
            maintainer: None,
        })
    }

    /// The writer's session, hosting the standing query's embedded twin.
    pub fn writer(&self, config: &RunConfig) -> std::io::Result<MirrorSession> {
        let mut ms = self.session()?;
        if let Some(statement) = config.maintain_statement() {
            let spec = parse_maintain(&statement)
                .map_err(other)?
                .ok_or_else(|| other("not a MAINTAIN statement"))?;
            let (maintainer, _) = Maintainer::register(&ms.session, spec).map_err(other)?;
            ms.maintainer = Some(maintainer);
        }
        Ok(ms)
    }
}

/// One thread's embedded session on the mirror.
pub struct MirrorSession {
    session: Arc<RqlSession>,
    known: u64,
    maintainer: Option<Maintainer>,
}

impl MirrorSession {
    /// Fold snapshots the writer committed since the last call into this
    /// session's `SnapIds`.
    fn sync(&mut self, mirror: &Mirror) -> std::io::Result<()> {
        let latest = mirror.committed.load(Ordering::Acquire);
        for sid in self.known + 1..=latest {
            rql::snapids::record_snapshot(self.session.aux_db(), sid, "mirror", None)
                .map_err(other)?;
        }
        self.known = self.known.max(latest);
        Ok(())
    }
}

/// The result-table name programs are recorded under for the oracle.
const ORACLE_TABLE: &str = "oracle_t";

/// Run one program through the server, record its answer, and replay it
/// on the mirror when tracing.
fn run_program(
    ctx: &Ctx,
    client: &mut Client,
    spec: &ProgramSpec,
    table: &str,
    out: &mut Observed,
    mirror: Option<(&Mirror, &mut MirrorSession)>,
    timed: bool,
) {
    let latest = ctx.latest.load(Ordering::Acquire);
    let (text, oracle_text) = {
        let shape = ctx.shape.read().expect("shape lock");
        (
            spec.program(&shape, latest, table),
            spec.program(&shape, latest, ORACLE_TABLE),
        )
    };
    out.attempted += 1;
    let t0 = Instant::now();
    let answer = client.run(&text);
    let rtt = t0.elapsed();
    let result = match answer {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: program failed: {e}\n{text}");
            out.failed += 1;
            if timed {
                out.queries.push(Query {
                    mech: spec.mech,
                    ms: f64::INFINITY,
                    done: Instant::now(),
                });
            }
            return;
        }
    };
    let digest = Digest::of(result.tables.iter().map(|t| t.rows.as_slice()));
    out.ledger.record(oracle_text, digest);
    if !timed {
        if let Some((mirror, session)) = mirror {
            if let Err(e) = replay(mirror, session, &text) {
                eprintln!("perfbench: mirror warm-up failed: {e}");
                out.failed += 1;
            }
        }
        return;
    }
    let done = Instant::now();
    out.queries.push(Query {
        mech: spec.mech,
        ms: ms(rtt),
        done,
    });
    out.wire.add(&result);
    out.ended = Some(done);
    if let Some((mirror, session)) = mirror {
        let t1 = Instant::now();
        let run = match replay(mirror, session, &text) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("perfbench: mirror replay failed: {e}");
                out.failed += 1;
                return;
            }
        };
        let program = ms(t1.elapsed());
        let server = result.elapsed_micros as f64 / 1e3;
        let s = &mut out.spans;
        s.rtt.push(ms(rtt));
        s.wire.push(ms(rtt) - server);
        s.pre_run.push(server - program);
        s.program.push(program);
        let mut walls = 0.0;
        for (_, report) in &run.reports {
            for it in &report.iterations {
                let (wall, fold) = (ms(it.wall), ms(it.udf_time));
                walls += wall;
                s.fold += fold;
                s.result_writes += it.result_inserts + it.result_updates;
                if it.memo_hit {
                    s.memo_probe += wall - fold;
                } else {
                    let q = &it.qq_stats;
                    let (spt, index, eval) = (ms(q.spt_build), ms(q.index_creation), ms(q.eval));
                    s.spt += spt;
                    s.index += index;
                    s.eval += eval;
                    s.residue += wall - fold - spt - index - eval;
                }
            }
        }
        s.rql_self += program - walls;
    }
}

fn replay(
    mirror: &Mirror,
    session: &mut MirrorSession,
    text: &str,
) -> std::io::Result<rql::ProgramRun> {
    session.sync(mirror)?;
    let parsed = parse_program(text).map_err(|d| other(d.message))?;
    run_program_with_reports(&session.session, &parsed).map_err(other)
}

/// One connection and what it carries across the warm-up and the windows.
pub struct Conn {
    /// Connection number (result-table names are unique per connection).
    pub id: u64,
    /// The connection.
    pub client: Client,
    /// The connection's seeded stream: programs for a reader, commit
    /// sizes for the writer.
    pub rng: Rng,
    /// Programs sent so far.
    pub seq: u64,
    /// This connection's session on the mirror, while tracing.
    pub mirror: Option<MirrorSession>,
}

impl Conn {
    /// A connection to the server in `ctx`.
    pub fn open(ctx: &Ctx, id: u64, rng: Rng) -> std::io::Result<Conn> {
        Ok(Conn {
            id,
            client: Client::connect(ctx.addr).map_err(other)?,
            rng,
            seq: 0,
            mirror: None,
        })
    }

    fn table(&mut self) -> String {
        self.seq += 1;
        format!("r{}_{}", self.id, self.seq)
    }

    /// Closed loop: send `workload`'s next program as soon as the last
    /// one is answered, until `until`.
    pub fn read(
        &mut self,
        ctx: &Ctx,
        workload: Workload,
        until: Instant,
        mirror: Option<&Mirror>,
    ) -> Observed {
        let mut out = Observed::default();
        while Instant::now() < until {
            let spec = next_program(workload, &ctx.config, &mut self.rng);
            let table = self.table();
            let m = mirror.zip(self.mirror.as_mut());
            run_program(ctx, &mut self.client, &spec, &table, &mut out, m, true);
        }
        out
    }

    /// Send each program once, untimed: the warm-up pass that lets the
    /// memo fill and the session's lazy set-up (filter-column inference
    /// and the sidecar rebuild it triggers) finish before timing.
    pub fn warm(
        &mut self,
        ctx: &Ctx,
        programs: &[ProgramSpec],
        mirror: Option<&Mirror>,
    ) -> Observed {
        let mut out = Observed::default();
        for spec in programs {
            let table = self.table();
            let m = mirror.zip(self.mirror.as_mut());
            run_program(ctx, &mut self.client, spec, &table, &mut out, m, false);
        }
        out
    }

    /// Send one refresh pair from `cursor`; latency is measured from
    /// `due`, and the commit size comes from this connection's stream.
    fn commit(
        &mut self,
        ctx: &Ctx,
        cursor: &mut Cursor,
        due: Instant,
        out: &mut Observed,
        mirror: Option<&Mirror>,
    ) {
        let n = commit_orders(&mut self.rng);
        let c = *cursor;
        let (statements, bytes) = refresh_statements(
            &ctx.config.tpch(),
            c.next_delete..c.next_delete + n,
            c.next_insert..c.next_insert + n,
        );
        out.attempted += 1;
        let sid = match self.client.run(&join_statements(&statements)) {
            Ok(r) if r.snapshots.len() == 1 => r.snapshots[0],
            Ok(r) => {
                eprintln!("perfbench: commit declared {:?}", r.snapshots);
                out.failed += 1;
                out.commits.push(f64::INFINITY);
                return;
            }
            Err(e) => {
                eprintln!("perfbench: commit failed: {e}");
                out.failed += 1;
                out.commits.push(f64::INFINITY);
                return;
            }
        };
        out.commits.push(ms(due.elapsed()));
        out.commit_bytes += bytes;
        out.ended = Some(Instant::now());
        *cursor = Cursor {
            next_delete: c.next_delete + n,
            next_insert: c.next_insert + n,
        };
        if let Some((mirror, session)) = mirror.zip(self.mirror.as_mut()) {
            if let Err(e) = mirror_commit(mirror, session, &statements, sid, &mut out.spans) {
                eprintln!("perfbench: mirror commit failed: {e}");
                out.failed += 1;
            }
        }
        ctx.shape
            .write()
            .expect("shape lock")
            .later
            .push(cursor.next_delete);
        ctx.latest.store(sid, Ordering::Release);
    }

    /// Open loop: one refresh pair every `1 / rate` seconds until
    /// `until`, each timed from its scheduled send time.
    pub fn write(
        &mut self,
        ctx: &Ctx,
        cursor: &mut Cursor,
        rate: f64,
        until: Instant,
        mirror: Option<&Mirror>,
    ) -> Observed {
        let mut out = Observed::default();
        let start = Instant::now();
        for i in 0u32.. {
            let due = start + Duration::from_secs_f64(f64::from(i) / rate);
            if due >= until {
                break;
            }
            let now = Instant::now();
            if now < due {
                thread::sleep(due - now);
            }
            out.late
                .push(ms(Instant::now().saturating_duration_since(due)));
            self.commit(ctx, cursor, due, &mut out, mirror);
        }
        out
    }

    /// `n` refresh pairs back to back: the write probe of the read-only
    /// workloads, and the short mode's writes.
    pub fn probe(&mut self, ctx: &Ctx, cursor: &mut Cursor, n: usize) -> Observed {
        let mut out = Observed::default();
        for _ in 0..n {
            self.commit(ctx, cursor, Instant::now(), &mut out, None);
        }
        out
    }
}

/// The next program of a connection's stream.
pub fn next_program(workload: Workload, config: &RunConfig, rng: &mut Rng) -> ProgramSpec {
    match workload {
        Workload::HistoryScan => scan_program(rng, config.snapshots),
        Workload::MemoReplay => {
            let catalog = dashboard_catalog(config.snapshots);
            catalog[rng.range(0, catalog.len() as u64 - 1) as usize].clone()
        }
        Workload::IngestMixed => recent_program(rng),
    }
}

/// Where the refresh stream stands.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    /// Next order key to delete.
    pub next_delete: i64,
    /// Next order key to insert.
    pub next_insert: i64,
}

/// Replay one refresh pair on the mirror statement by statement, timing
/// DML, the commit, and the standing query's maintenance separately.
fn mirror_commit(
    mirror: &Mirror,
    session: &mut MirrorSession,
    statements: &[String],
    expect: u64,
    spans: &mut Spans,
) -> std::io::Result<()> {
    let mut dml = 0.0;
    let mut declared = None;
    for statement in statements {
        let t = Instant::now();
        let outcome = session.session.execute(statement).map_err(other)?;
        let took = ms(t.elapsed());
        if let ExecOutcome::SnapshotDeclared(sid) = outcome {
            spans.commit.push(took);
            declared = Some(sid);
        } else if statement != "BEGIN" {
            dml += took;
        }
    }
    spans.dml.push(dml);
    let sid = declared.ok_or_else(|| other("mirror commit declared no snapshot"))?;
    if sid != expect {
        return Err(other(format!("mirror declared {sid}, server {expect}")));
    }
    if let Some(maintainer) = session.maintainer.as_mut() {
        let t = Instant::now();
        maintainer.advance(sid).map_err(other)?;
        spans.maintain_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    session.known = sid;
    mirror.committed.store(sid, Ordering::Release);
    Ok(())
}
