//! The driver every RQL mechanism runs through (paper §3): Qs selects
//! the snapshot set, then a loop body executes Qq on each snapshot and
//! folds its rows into the result table `T` in the auxiliary database.
//!
//! A run is a per-snapshot **source** crossed with a **fold**:
//!
//! * sources produce Qq's output at each snapshot — `Source::Sequential`
//!   re-executes the rewritten Qq (`AS OF` plus `current_snapshot()`
//!   substitution), `Source::Chain` reads the snapshot set as a delta
//!   chain ([`crate::delta`]), `Source::Parallel` runs the sequential
//!   per-snapshot function on worker threads ([`crate::parallel`]); every
//!   source consults the memo first;
//! * folds ([`crate::fold`]) write those rows into `T`: blind inserts for
//!   `CollateData`, a running variable for `AggregateDataInVariable`,
//!   probe-then-update for `AggregateDataInTable`, lifetime maintenance
//!   for `CollateDataIntoIntervals`.
//!
//! The driver owns everything the loop does once: evaluating and
//! validating Qs, parsing Qq, cancellation checkpoints, the trace spans,
//! [`IterationReport`] accounting, and creating `T` (and dropping it
//! again when a whole computation that created it fails). Its callers
//! are the session's API form, the SQL-UDF step form (one call per
//! `SnapIds` row, detecting the first iteration by `T`'s absence — how
//! the paper's SQLite UDF callback gets invoked), program dispatch, and
//! the standing-query maintainer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rql_memo::MemoStore;
use rql_sqlengine::ast::Stmt;
use rql_sqlengine::{
    parse_select, Database, QueryResult, Result, SelectStmt, SqlError, TableWriter,
};

use crate::analyze::{MechanismCall, MechanismKind};
use crate::delta::{shape_eligible, DeltaPolicy, DeltaQqStream};
use crate::fold::{Effects, Fold};
use crate::memoize::QqMemo;
use crate::report::{IterationReport, RqlReport};
use crate::rewrite::rewrite_select;

/// Optional shared memo store threaded from the session into the
/// mechanism loops (`None` = memoization off).
type MemoHandle = Option<Arc<MemoStore>>;

/// How a run produces Qq's output per snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Iteration {
    /// One snapshot after another on the calling thread. `Off` re-executes
    /// Qq per snapshot; `Auto` and `Forced` read the snapshot set as a
    /// delta chain where the Qq shape allows (see [`crate::delta`]).
    Delta(DeltaPolicy),
    /// Qq on this many worker threads, folded into `T` in Qs order (see
    /// [`crate::parallel`]).
    Parallel(usize),
}

impl Iteration {
    /// Plain sequential iteration, the paper's loop.
    pub const SEQUENTIAL: Iteration = Iteration::Delta(DeltaPolicy::Off);
}

impl From<DeltaPolicy> for Iteration {
    fn from(policy: DeltaPolicy) -> Self {
        Iteration::Delta(policy)
    }
}

/// Run Qs on the auxiliary database and return the snapshot ids.
fn snapshot_set(aux: &Database, qs: &str) -> Result<(Vec<u64>, Duration)> {
    let started = Instant::now();
    let result = aux.query(qs)?;
    let elapsed = started.elapsed();
    if result.columns.len() != 1 {
        return Err(SqlError::Invalid(format!(
            "Qs must return a single snapshot-id column, got {}",
            result.columns.len()
        )));
    }
    let ids = result
        .rows
        .iter()
        .map(|row| {
            row[0].as_i64().map(|id| id as u64).ok_or_else(|| {
                SqlError::Invalid(format!("Qs returned a non-integer snapshot id: {}", row[0]))
            })
        })
        .collect::<Result<_>>()?;
    Ok((ids, elapsed))
}

/// Whether `table` exists in the auxiliary database.
fn table_exists(aux: &Database, table: &str) -> bool {
    aux.table_row_count(table).is_ok()
}

/// Qq, parsed once per run, with its memo handle.
pub(crate) struct Qq {
    pub(crate) parsed: SelectStmt,
    pub(crate) memo: Option<QqMemo>,
}

impl Qq {
    /// Parse Qq, rejecting `AS OF`: RQL binds the snapshot per iteration.
    pub(crate) fn new(snap: &Database, qq: &str, memo: MemoHandle) -> Result<Qq> {
        let parsed = parse_select(qq)?;
        if parsed.as_of.is_some() {
            return Err(SqlError::Invalid(
                "Qq must not contain AS OF; RQL binds the snapshot per iteration".into(),
            ));
        }
        let memo = QqMemo::attach(memo, snap, &parsed);
        Ok(Qq { parsed, memo })
    }

    /// The sequential per-snapshot function: Qq's output at `sid` and
    /// whether the memo served it. Snapshots are immutable, so a
    /// memoized result is byte-identical to re-execution; hits skip the
    /// executor and report zeroed Qq stats.
    pub(crate) fn execute(&self, snap: &Database, sid: u64) -> Result<(QueryResult, bool)> {
        let memo = self.memo.as_ref();
        if let Some(hit) = memo.and_then(|m| m.lookup_result_seq(snap, &self.parsed, sid)) {
            rql_trace::instant_arg(rql_trace::SpanId::MemoHit, sid);
            return Ok((hit, true));
        }
        if memo.is_some() {
            rql_trace::instant_arg(rql_trace::SpanId::MemoMiss, sid);
        }
        let outcome = snap.execute_stmt(&Stmt::Select(rewrite_select(&self.parsed, sid)))?;
        let result = outcome.rows().expect("SELECT yields rows");
        if let Some(m) = memo {
            m.record_result_seq(snap, &self.parsed, sid, &result);
        }
        Ok((result, false))
    }
}

/// Where a run's per-snapshot Qq output comes from.
pub(crate) enum Source {
    /// [`Qq::execute`] per snapshot.
    Sequential,
    /// The delta chain; `anchor` is the snapshot the previous run ended
    /// on (a standing query's next chain is `[anchor, new]`).
    Chain {
        stream: Box<DeltaQqStream>,
        anchor: Option<u64>,
    },
    /// [`Qq::execute`] on this many worker threads.
    Parallel(usize),
}

impl Source {
    /// The batch source for `iteration`. Under `Auto`, shapes the delta
    /// scan cannot reproduce and `CollateDataIntoIntervals` run
    /// sequentially; `Forced` refuses them.
    pub(crate) fn batch(iteration: Iteration, kind: MechanismKind, qq: &Qq) -> Result<Source> {
        let policy = match iteration {
            Iteration::Parallel(threads) => return Ok(Source::Parallel(threads)),
            Iteration::Delta(DeltaPolicy::Off) => return Ok(Source::Sequential),
            Iteration::Delta(policy) => policy,
        };
        let refusal = if kind == MechanismKind::Intervals {
            "DeltaPolicy::Forced is not supported for CollateDataIntoIntervals \
             (no delta path yet; see ROADMAP open items)"
        } else if !shape_eligible(&qq.parsed) {
            "DeltaPolicy::Forced requires a delta-eligible Qq: a single FROM table, \
             no joins, and no current_snapshot() in WHERE"
        } else {
            return Ok(Source::chain(qq, policy, kind));
        };
        match policy {
            DeltaPolicy::Forced => Err(SqlError::Invalid(refusal.into())),
            _ => Ok(Source::Sequential),
        }
    }

    /// A fresh delta chain.
    pub(crate) fn chain(qq: &Qq, policy: DeltaPolicy, kind: MechanismKind) -> Source {
        Source::Chain {
            stream: Box::new(DeltaQqStream::new(
                qq,
                policy,
                kind == MechanismKind::AggVar,
            )),
            anchor: None,
        }
    }
}

/// How a run treats the result table it folds into.
pub(crate) enum Target {
    /// A whole computation: `T` must not exist yet.
    Fresh,
    /// One UDF-form step: fold into `T` if it exists; `prev` is the
    /// snapshot the preceding step folded (`CollateDataIntoIntervals`).
    Step { prev: Option<u64> },
}

/// The result table `T` as one run sees it.
pub(crate) struct Table {
    pub(crate) name: String,
    /// Whether `T` exists in the auxiliary database.
    pub(crate) exists: bool,
    /// Whether this run created `T`.
    created: bool,
    /// Row-level effects of the folds, when a caller asked for them.
    pub(crate) effects: Effects,
}

impl Table {
    /// Create `T` with `columns`, all typed ANY, plus — for a non-empty
    /// `key` — the index on those columns the probing folds need (paper
    /// §3: "we also create an index on Result using as key the values in
    /// non-aggregating columns").
    pub(crate) fn create(
        &mut self,
        aux: &Database,
        columns: &[String],
        key: &[String],
    ) -> Result<()> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.eq_ignore_ascii_case(c)) {
                return Err(SqlError::Invalid(format!(
                    "Qq output has duplicate column name {c}"
                )));
            }
        }
        // Quote names so literal-derived columns ("SELECT DISTINCT 1 …"
        // yields a column named "1", as in the paper's §2.2 example) parse.
        let quoted = |cols: &[String], suffix: &str| {
            cols.iter()
                .map(|c| format!("\"{}\"{suffix}", c.to_ascii_lowercase()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        aux.execute(&format!(
            "CREATE TABLE {} ({})",
            self.name.to_ascii_lowercase(),
            quoted(columns, " ANY")
        ))?;
        self.exists = true;
        self.created = true;
        if !key.is_empty() {
            aux.execute(&format!(
                "CREATE INDEX __rql_idx_{} ON {} ({})",
                self.name.to_ascii_lowercase(),
                self.name,
                quoted(key, "")
            ))?;
        }
        Ok(())
    }

    /// Run `f` with a writer over `T` and the effect log.
    pub(crate) fn write<R>(
        &mut self,
        aux: &Database,
        f: impl FnOnce(&mut TableWriter, &mut Effects) -> Result<R>,
    ) -> Result<R> {
        aux.with_table_writer(&self.name, |w| f(w, &mut self.effects))
    }
}

/// One mechanism computation: Qq, its source, its fold, and `T`.
pub(crate) struct Run {
    qq: Qq,
    pub(crate) source: Source,
    pub(crate) fold: Fold,
    pub(crate) table: Table,
}

impl Run {
    /// Set up `call` against `target`; `source` picks the source for the
    /// parsed Qq.
    pub(crate) fn new(
        snap: &Database,
        aux: &Database,
        call: &MechanismCall<'_>,
        target: Target,
        memo: MemoHandle,
        source: impl FnOnce(&Qq) -> Result<Source>,
    ) -> Result<Run> {
        let exists = table_exists(aux, call.table);
        if exists && matches!(target, Target::Fresh) {
            return Err(SqlError::Constraint(format!(
                "result table {} already exists",
                call.table
            )));
        }
        let qq = Qq::new(snap, call.qq, memo)?;
        let fold = Fold::new(call.kind, call.spec, &target)?;
        let source = source(&qq)?;
        Ok(Run {
            qq,
            source,
            fold,
            table: Table {
                name: call.table.to_owned(),
                exists,
                created: false,
                effects: Effects::default(),
            },
        })
    }

    /// Evaluate Qs and fold every snapshot it selects. A run that fails
    /// after creating `T` drops it again, so a failed computation leaves
    /// no partial result behind.
    pub(crate) fn run(&mut self, snap: &Database, aux: &Database, qs: &str) -> Result<RqlReport> {
        let outcome = {
            let _qs_span = rql_trace::span(rql_trace::SpanId::QsLoop);
            snapshot_set(aux, qs).and_then(|(ids, qs_time)| {
                let iterations = self.iterate(snap, aux, &ids)?;
                Ok(RqlReport {
                    iterations,
                    qs_time,
                    ..Default::default()
                })
            })
        };
        let outcome = outcome.and_then(|report| self.finish(aux, report));
        if outcome.is_err() && self.table.created {
            let _ = aux.execute(&format!("DROP TABLE IF EXISTS {}", self.table.name));
            self.table.exists = false;
        }
        outcome
    }

    /// Fold the snapshots `ids`, in order.
    pub(crate) fn iterate(
        &mut self,
        snap: &Database,
        aux: &Database,
        ids: &[u64],
    ) -> Result<Vec<IterationReport>> {
        let mut gathered = match self.source {
            Source::Parallel(threads) => crate::parallel::gather(snap, &self.qq, ids, threads),
            _ => Vec::new(),
        }
        .into_iter();
        let readers = match &self.source {
            Source::Chain { anchor, .. } if !ids.is_empty() => {
                let chain: Vec<u64> = anchor.iter().chain(ids).copied().collect();
                let mut readers = snap.store().open_snapshot_chain(&chain)?;
                readers.drain(..chain.len() - ids.len());
                readers
            }
            _ => Vec::new(),
        };
        let mut reports = Vec::with_capacity(ids.len());
        for (i, &sid) in ids.iter().enumerate() {
            let _qq_span = rql_trace::span_arg(rql_trace::SpanId::QqIteration, sid);
            let started = Instant::now();
            // Cancellation checkpoint between snapshots: a `CANCEL` that
            // lands mid-loop stops before the next Qq opens its snapshot
            // (row-batch checkpoints inside the executor cover the rest).
            snap.cancel_token().check()?;
            let mut qq_wall = Duration::ZERO;
            let produced;
            let (result, memo_hit) = match &mut self.source {
                Source::Sequential => {
                    produced = self.qq.execute(snap, sid)?;
                    (&produced.0, produced.1)
                }
                Source::Chain { stream, .. } => {
                    let hit = stream.advance(snap, &self.qq, &readers[i], sid)?;
                    (stream.current(), hit)
                }
                Source::Parallel(_) => {
                    let (outcome, wall) = gathered.next().expect("one outcome per snapshot");
                    qq_wall = wall;
                    produced = outcome?;
                    (&produced.0, produced.1)
                }
            };
            let fold_started = Instant::now();
            let (result_inserts, result_updates) =
                self.fold.fold(aux, &mut self.table, sid, result)?;
            rql_trace::instant_arg(rql_trace::SpanId::RowsFolded, result.rows.len() as u64);
            reports.push(IterationReport {
                snap_id: sid,
                qq_stats: result.stats,
                udf_time: fold_started.elapsed(),
                qq_rows: result.rows.len() as u64,
                result_inserts,
                result_updates,
                memo_hit,
                wall: qq_wall + started.elapsed(),
            });
        }
        if let (Source::Chain { anchor, .. }, Some(&last)) = (&mut self.source, ids.last()) {
            *anchor = Some(last);
        }
        Ok(reports)
    }

    /// The fold's final write after the last snapshot, timed as the
    /// report's finalize step.
    pub(crate) fn finish(&mut self, aux: &Database, mut report: RqlReport) -> Result<RqlReport> {
        if self.fold.finishes() {
            let _fin_span = rql_trace::span(rql_trace::SpanId::Finalize);
            let started = Instant::now();
            self.fold.finish(aux, &mut self.table)?;
            report.finalize_time = started.elapsed();
        }
        Ok(report)
    }
}

/// Run `call` as a whole computation under `iteration`.
pub(crate) fn run(
    snap: &Database,
    aux: &Database,
    call: &MechanismCall<'_>,
    iteration: Iteration,
    memo: MemoHandle,
) -> Result<RqlReport> {
    Run::new(snap, aux, call, Target::Fresh, memo, |qq| {
        Source::batch(iteration, call.kind, qq)
    })?
    .run(snap, aux, call.qs)
}
