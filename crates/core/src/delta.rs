//! Delta-chain iteration — the perf extension to the paper's mechanisms
//! (§3) for closely-spaced snapshot sets, as a per-snapshot source of the
//! shared driver ([`crate::mechanism`]).
//!
//! The sequential source re-executes Qq from scratch per snapshot, so an
//! iteration's cost is proportional to the *table* size even when the
//! snapshots differ by a handful of rows. The chain source opens the
//! whole snapshot set as a chain
//! ([`rql_retro::RetroStore::open_snapshot_chain`]), builds each SPT
//! incrementally from its predecessor, and evaluates Qq through the
//! engine's delta-aware scan ([`rql_sqlengine::DeltaSelectRunner`]),
//! which re-reads only the heap pages in the changed set between
//! consecutive snapshots. Every fold consumes its output unchanged.
//!
//! Evaluation modes, all byte-identical to the sequential result:
//!
//! * **pipeline** — re-run Qq's post-scan stages (the same
//!   `finish_select` code the ordinary plan uses) over the cached
//!   filtered base rows. Saves the page I/O, pays O(rows) CPU.
//! * **output reuse** — a snapshot whose scan fetched nothing and changed
//!   no row reuses the previous output outright when the post-scan
//!   stages are deterministic and snapshot-invariant.
//! * **incremental** — for `AggregateDataInVariable` whose Qq is a bare
//!   inner aggregate (`SELECT SUM(x) FROM t [WHERE …]`), maintain the
//!   inner aggregate across iterations and fold only the added/removed
//!   rows: O(delta) CPU. Exactness guards (below) degrade permanently to
//!   pipeline mode whenever bit-identical output cannot be proven.
//!
//! Exactness guards for the incremental inner aggregate:
//!
//! * `COUNT` — always exact (integer add/subtract).
//! * `SUM` — only while every non-NULL input is an `Integer` and the sum
//!   of absolute values stays ≤ `i64::MAX`: then no scan-order prefix of
//!   the sequential fold can overflow `i64`, so the sequential result is
//!   `Integer(total)` in every order.
//! * `AVG` — only all-`Integer` with the absolute sum ≤ 2⁵³: every
//!   scan-order partial sum of the sequential `f64` accumulation is then
//!   an exactly-representable integer, so the accumulated `f64` equals
//!   the true integer sum bit-for-bit.
//! * `MIN`/`MAX` — kept incrementally under strict comparisons; any
//!   removal that could displace the current best, or an added value that
//!   *ties* it (the sequential fold keeps the first-in-scan-order
//!   representative, which the running value cannot know), triggers a
//!   re-fold over the current rows — still no page I/O.
//!
//! A schema change invalidates the compiled aggregate argument, but this
//! dialect has no `ALTER TABLE`: a schema can only change via
//! `DROP`+`CREATE`, which allocates a fresh root page, which the scanner
//! detects (root moved → rebuild) and the stream answers by re-seeding
//! from the rebuilt row set.
//!
//! Shapes the delta scan cannot reproduce byte-for-byte (joins, indexed
//! probes, UDFs in WHERE, `current_snapshot()` in WHERE) fall back to
//! the ordinary plan per [`DeltaPolicy`]: `Auto` silently, `Forced` with
//! an error. Batch `CollateDataIntoIntervals` still runs sequentially
//! under `Auto`; the standing-query maintainer drives all four folds
//! from the chain.

use std::cmp::Ordering;

use rql_retro::SnapshotReader;
use rql_sqlengine::ast::{Expr, SelectItem, Stmt};
use rql_sqlengine::cexpr::{compile, eval, CExpr, Scope};
use rql_sqlengine::{
    Catalog, Database, DeltaScan, DeltaSelectRunner, QueryResult, Result, Row, SelectStmt,
    SkipReason, SqlError, UdfRegistry, Value,
};

use crate::aggregate::AggOp;
use crate::mechanism::Qq;
use crate::rewrite::{rewrite_select, uses_current_snapshot};

/// When to take the delta-aware iteration path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaPolicy {
    /// Never: run the sequential source unconditionally.
    Off,
    /// Delta when the Qq shape allows it, sequential fallback otherwise
    /// (per computation *and* per iteration).
    #[default]
    Auto,
    /// Delta or error — for tests and benchmarks that must not silently
    /// measure the ordinary path.
    Forced,
}

/// Static (per-computation) eligibility: a single-table scan shape whose
/// WHERE clause is iteration-invariant. `current_snapshot()` elsewhere
/// (projection, GROUP BY, …) is fine — those stages re-run per iteration
/// over the cached base rows with the substituted literal.
pub(crate) fn shape_eligible(parsed: &SelectStmt) -> bool {
    DeltaSelectRunner::eligible_shape(parsed)
        && !parsed
            .where_clause
            .as_ref()
            .is_some_and(uses_current_snapshot)
}

/// Analyzer mirror of [`inner_agg_shape`]: whether Qq is the bare inner
/// aggregate the incremental `AggregateDataInVariable` path maintains.
pub(crate) fn has_inner_agg_shape(parsed: &SelectStmt) -> bool {
    inner_agg_shape(parsed).is_some()
}

/// Per-snapshot Qq evaluation over a delta chain: runner state, memo
/// lookups, output reuse on whole-snapshot skips, the incremental inner
/// aggregate, and the `DeltaPolicy::Forced` contract. Call
/// [`advance`](Self::advance) once per snapshot in chain order, then read
/// [`current`](Self::current).
pub(crate) struct DeltaQqStream {
    runner: DeltaSelectRunner,
    policy: DeltaPolicy,
    /// Whether a whole-snapshot skip may reuse the previous output
    /// outright (deterministic, snapshot-invariant post-scan stages).
    reusable: bool,
    /// Shape-ineligible Qq (joins, or `current_snapshot()` in WHERE —
    /// the scanner's cached filter would be wrong): never attempt the
    /// delta scan, evaluate sequentially every snapshot. Batch runs pick
    /// the sequential source instead; this guard keeps the stream correct
    /// for the standing-query maintainer, which takes whatever Qq was
    /// registered.
    seq_only: bool,
    /// The incremental inner-aggregate shape; `None` once degraded (or
    /// when the fold is not `AggregateDataInVariable`).
    inner_spec: Option<InnerSpec>,
    /// The running inner aggregate, when seeded and current.
    inner: Option<InnerAgg>,
    current: Option<QueryResult>,
}

impl DeltaQqStream {
    /// A stream for `qq`; `incremental` enables the inner-aggregate path
    /// (its single-value output is what `AggregateDataInVariable` folds).
    pub(crate) fn new(qq: &Qq, policy: DeltaPolicy, incremental: bool) -> Self {
        // A snapshot whose scan fetched zero pages and produced no row
        // delta may reuse the previous iteration's output outright — but
        // only when the post-scan stages are deterministic (no UDF
        // anywhere) and snapshot-invariant (no current_snapshot() outside
        // WHERE; the rewrite probe differs between two sids exactly when
        // the substituted literal appears somewhere).
        let parsed = &qq.parsed;
        DeltaQqStream {
            runner: DeltaSelectRunner::new(),
            policy,
            reusable: crate::memoize::memo_eligible(parsed)
                && rewrite_select(parsed, 0) == rewrite_select(parsed, 1),
            seq_only: !shape_eligible(parsed),
            inner_spec: inner_agg_shape(parsed).filter(|_| incremental),
            inner: None,
            current: None,
        }
    }

    /// This snapshot's Qq output (valid after [`advance`](Self::advance)).
    pub(crate) fn current(&self) -> &QueryResult {
        self.current.as_ref().expect("advance() before current()")
    }

    /// Evaluate Qq at `sid` through the delta-aware scan, consuming the
    /// chain delta carried by `reader`. Returns whether the memo served
    /// the result.
    pub(crate) fn advance(
        &mut self,
        snap: &Database,
        qq: &Qq,
        reader: &SnapshotReader,
        sid: u64,
    ) -> Result<bool> {
        let (parsed, memo) = (&qq.parsed, qq.memo.as_ref());
        let rewritten = rewrite_select(parsed, sid);
        if let Some(hit) = memo.and_then(|m| m.lookup_result(reader, parsed, sid)) {
            rql_trace::instant_arg(rql_trace::SpanId::MemoHit, sid);
            // Keep the chain delta across the skipped execution: the
            // memoized seed is the scanner state as of `sid`, so the next
            // iteration's changed-set (relative to `sid`) still applies.
            // No seed → invalidate and let it rebuild. The running inner
            // aggregate cannot absorb a skipped iteration, so it goes
            // stale and re-seeds from the next live scan's row set.
            match memo.and_then(|m| m.lookup_seed(reader, parsed, sid)) {
                Some(seed) => self.runner.import_seed(seed),
                None => self.runner.invalidate(),
            }
            self.inner = None;
            self.current = Some(hit);
            return Ok(true);
        }
        if memo.is_some() {
            rql_trace::instant_arg(rql_trace::SpanId::MemoMiss, sid);
        }
        let scanned = if self.seq_only {
            None
        } else {
            snap.delta_scan(reader, &rewritten, &mut self.runner)?
        };
        let delta_path = scanned.is_some();
        let result = match scanned {
            None => {
                if self.policy == DeltaPolicy::Forced {
                    return Err(SqlError::Invalid(format!(
                        "DeltaPolicy::Forced, but snapshot {sid} requires the ordinary plan \
                         (indexed equality probe or UDF in WHERE)"
                    )));
                }
                // Ordinary plan; the runner has self-invalidated, so the
                // next successful scan rebuilds and re-seeds.
                rql_trace::instant_arg(rql_trace::SpanId::SeqPath, sid);
                self.inner = None;
                let outcome = snap.execute_stmt(&Stmt::Select(rewritten))?;
                outcome.rows().expect("SELECT yields rows")
            }
            Some((scan, mut stats)) => {
                rql_trace::instant_arg(rql_trace::SpanId::DeltaPath, sid);
                let skip = scan.snapshot_skip();
                if skip == Some(SkipReason::Pruned) {
                    // The store-level counter feeds METRICS; the local
                    // snapshot was taken inside delta_scan, before this
                    // decision, so the iteration's stats need the bump
                    // too or the report under-counts.
                    snap.io_stats().count_snapshot_pruned();
                    stats.io.snapshots_pruned += 1;
                    rql_trace::instant_arg(rql_trace::SpanId::SnapshotPruned, sid);
                }
                let mut value = None;
                if let (Some(agg), false) = (&mut self.inner, scan.rebuilt) {
                    value = agg.apply(&scan)?;
                    if value.is_none() {
                        // Exactness lost: pipeline from here on.
                        self.inner = None;
                        self.inner_spec = None;
                    }
                }
                match (value, &self.current) {
                    (Some(v), Some(prev)) => {
                        // The value a fresh execution would return is
                        // exactly this one row.
                        stats.rows = 1;
                        QueryResult {
                            columns: prev.columns.clone(),
                            rows: vec![vec![v]],
                            stats,
                            plan: Vec::new(),
                        }
                    }
                    (_, Some(prev)) if self.reusable && skip.is_some() => {
                        // Zero heap fetches and an empty row delta: the
                        // filtered base rows are byte-identical to the
                        // previous iteration's, so its output is this
                        // iteration's output — skip the post-scan stages.
                        stats.rows = prev.rows.len() as u64;
                        QueryResult {
                            columns: prev.columns.clone(),
                            rows: prev.rows.clone(),
                            stats,
                            plan: vec![format!(
                                "{}: delta seq scan (output reused)",
                                rewritten.from[0].name
                            )],
                        }
                    }
                    _ => {
                        if let Some(spec) = &self.inner_spec {
                            self.inner =
                                InnerAgg::seed(spec, parsed, &Catalog::load(reader)?, &scan.rows)?;
                            if self.inner.is_none() {
                                self.inner_spec = None;
                            }
                        }
                        let fin = snap.delta_finish(reader, &rewritten, scan.rows)?;
                        stats.eval += fin.stats.eval;
                        stats.io.accumulate(&fin.stats.io);
                        stats.rows = fin.stats.rows;
                        QueryResult { stats, ..fin }
                    }
                }
            }
        };
        if let Some(m) = memo {
            m.record_result(reader, parsed, sid, &result);
            if let Some(seed) = delta_path.then(|| self.runner.export_seed()).flatten() {
                m.record_seed(reader, parsed, sid, seed);
            }
        }
        self.current = Some(result);
        Ok(false)
    }
}

// ======================================================================
// The incremental inner aggregate
// ======================================================================

/// The recognized incremental shape: `SELECT <agg>(<arg>|*) FROM t
/// [WHERE …]` with no DISTINCT/GROUP BY/HAVING/ORDER BY/LIMIT and an
/// iteration-invariant argument.
struct InnerSpec {
    op: AggOp,
    /// `None` = `COUNT(*)`.
    arg: Option<Expr>,
}

fn inner_agg_shape(select: &SelectStmt) -> Option<InnerSpec> {
    if select.distinct
        || !select.group_by.is_empty()
        || select.having.is_some()
        || !select.order_by.is_empty()
        || select.limit.is_some()
        || select.items.len() != 1
    {
        return None;
    }
    let SelectItem::Expr {
        expr:
            Expr::Function {
                name,
                args,
                distinct: false,
            },
        ..
    } = &select.items[0]
    else {
        return None;
    };
    let op = AggOp::parse(name).ok()?;
    match args.as_slice() {
        [Expr::Star] => (op == AggOp::Count).then_some(InnerSpec { op, arg: None }),
        [e] if !e.contains_aggregate() && !uses_current_snapshot(e) => Some(InnerSpec {
            op,
            arg: Some(e.clone()),
        }),
        _ => None,
    }
}

/// Upper bound on |sum| such that every scan-order partial sum of an
/// all-integer input is exactly representable in `f64`.
const MAX_EXACT_F64: i128 = 1 << 53;

/// Running inner-aggregate value with its exactness bookkeeping.
enum InnerAcc {
    Count {
        n: i64,
    },
    /// SUM (`avg == false`) or AVG over all-`Integer` inputs.
    Int {
        sum: i128,
        abs: i128,
        n: i64,
        avg: bool,
    },
    MinMax {
        max: bool,
        best: Option<Value>,
    },
}

impl InnerAcc {
    fn new(op: AggOp) -> InnerAcc {
        let int = |avg| InnerAcc::Int {
            sum: 0,
            abs: 0,
            n: 0,
            avg,
        };
        match op {
            AggOp::Count => InnerAcc::Count { n: 0 },
            AggOp::Sum => int(false),
            AggOp::Avg => int(true),
            AggOp::Min | AggOp::Max => InnerAcc::MinMax {
                max: op == AggOp::Max,
                best: None,
            },
        }
    }

    /// Fold one value in scan order (strict first-wins for MIN/MAX —
    /// exactly the engine's `AggAcc::update` rule). Returns `false` when
    /// the value is not incrementally representable (degrade to pipeline
    /// mode).
    fn fold(&mut self, v: Option<Value>) -> bool {
        self.add(v, 1)
    }

    /// Subtract one removed value. MIN/MAX removals are handled by the
    /// caller's re-fold, never here.
    fn unfold(&mut self, v: Option<Value>) -> bool {
        !matches!(self, InnerAcc::MinMax { .. }) && self.add(v, -1)
    }

    fn add(&mut self, v: Option<Value>, sign: i64) -> bool {
        match self {
            InnerAcc::Count { n } => {
                if v.as_ref().is_none_or(|v| !v.is_null()) {
                    *n += sign;
                }
                true
            }
            InnerAcc::Int { sum, abs, n, .. } => match v {
                Some(Value::Null) => true,
                Some(Value::Integer(i)) => {
                    *sum += i128::from(sign) * i128::from(i);
                    *abs += i128::from(sign) * i128::from(i).abs();
                    *n += sign;
                    true
                }
                _ => false,
            },
            InnerAcc::MinMax { max, best } => {
                let Some(v) = v else { return false };
                if !v.is_null()
                    && best.as_ref().is_none_or(|b| {
                        let ord = v.total_cmp(b);
                        ord != Ordering::Equal && (ord == Ordering::Greater) == *max
                    })
                {
                    *best = Some(v);
                }
                true
            }
        }
    }

    /// Whether the exactness guard still holds after the latest folds.
    fn guard_ok(&self) -> bool {
        match self {
            InnerAcc::Int {
                abs, avg: false, ..
            } => *abs <= i128::from(i64::MAX),
            InnerAcc::Int { abs, avg: true, .. } => *abs <= MAX_EXACT_F64,
            _ => true,
        }
    }

    /// The aggregate value, matching the engine's `AggAcc::finish`.
    fn finish(&self) -> Value {
        match self {
            InnerAcc::Count { n } => Value::Integer(*n),
            InnerAcc::Int { n: 0, .. } => Value::Null,
            InnerAcc::Int {
                sum, avg: false, ..
            } => Value::Integer(*sum as i64),
            InnerAcc::Int {
                sum, n, avg: true, ..
            } => Value::Real(*sum as f64 / *n as f64),
            InnerAcc::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
        }
    }
}

/// Incremental inner-aggregate state: the compiled argument plus the
/// running accumulator.
struct InnerAgg {
    /// `None` = `COUNT(*)`.
    arg: Option<CExpr>,
    acc: InnerAcc,
}

impl InnerAgg {
    /// Compile the argument against the snapshot's catalog and fold the
    /// full row set (a rebuilt scan). `Ok(None)` = shape or values not
    /// incrementally representable; use pipeline mode.
    fn seed(
        spec: &InnerSpec,
        select: &SelectStmt,
        catalog: &Catalog,
        rows: &[Row],
    ) -> Result<Option<InnerAgg>> {
        let arg = match &spec.arg {
            None => None,
            Some(e) => {
                let Ok(info) = catalog.require_table(&select.from[0].name) else {
                    return Ok(None);
                };
                let alias = select.from[0].binding().to_ascii_lowercase();
                let mut scope = Scope::empty();
                scope.push(
                    &alias,
                    info.schema.columns.iter().map(|c| c.name.clone()).collect(),
                );
                // An empty registry rejects UDF calls at compile time —
                // a UDF argument is never folded incrementally.
                match compile(e, &scope, &UdfRegistry::new(), None) {
                    Ok(c) => Some(c),
                    Err(_) => return Ok(None),
                }
            }
        };
        let mut agg = InnerAgg {
            arg,
            acc: InnerAcc::new(spec.op),
        };
        for row in rows {
            if !agg.acc.fold(agg.value(row)?) {
                return Ok(None);
            }
        }
        Ok(agg.acc.guard_ok().then_some(agg))
    }

    fn value(&self, row: &Row) -> Result<Option<Value>> {
        self.arg.as_ref().map(|c| eval(c, row, &[])).transpose()
    }

    /// Fold one non-rebuilt scan's delta and return the iteration value,
    /// or `None` when exactness is lost (the caller recomputes via the
    /// pipeline and stays there).
    fn apply(&mut self, scan: &DeltaScan) -> Result<Option<Value>> {
        if let InnerAcc::MinMax { max, best } = &self.acc {
            let (max, mut best) = (*max, best.clone());
            let worse = if max {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            // A removal is safe only when strictly worse than the running
            // best. An added value that ties it may precede it in scan
            // order with a different representation, and the sequential
            // fold keeps the first. Anything else re-derives the best
            // from the current rows.
            let mut refold = false;
            for row in &scan.removed {
                let v = self.value(row)?.unwrap_or(Value::Null);
                if !v.is_null() && best.as_ref().is_none_or(|b| v.total_cmp(b) != worse) {
                    refold = true;
                    break;
                }
            }
            let added = if refold { &[][..] } else { &scan.added[..] };
            for row in added {
                let v = self.value(row)?.unwrap_or(Value::Null);
                match best.as_ref().map(|b| v.total_cmp(b)) {
                    _ if v.is_null() => {}
                    Some(Ordering::Equal) => {
                        refold = true;
                        break;
                    }
                    Some(ord) if ord == worse => {}
                    _ => best = Some(v),
                }
            }
            if refold {
                self.acc = InnerAcc::new(if max { AggOp::Max } else { AggOp::Min });
                for row in &scan.rows {
                    if !self.acc.fold(self.value(row)?) {
                        return Ok(None);
                    }
                }
            } else if let InnerAcc::MinMax { best: b, .. } = &mut self.acc {
                *b = best;
            }
            return Ok(Some(self.acc.finish()));
        }
        for row in &scan.added {
            if !self.acc.fold(self.value(row)?) {
                return Ok(None);
            }
        }
        for row in &scan.removed {
            if !self.acc.unfold(self.value(row)?) {
                return Ok(None);
            }
        }
        Ok(self.acc.guard_ok().then(|| self.acc.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::parse_select;

    fn parsed(sql: &str) -> SelectStmt {
        parse_select(sql).unwrap()
    }

    #[test]
    fn inner_shape_detection() {
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) FROM t")).is_some());
        assert!(inner_agg_shape(&parsed("SELECT COUNT(*) FROM t WHERE v > 3")).is_some());
        assert!(inner_agg_shape(&parsed("SELECT MIN(v + 1) FROM t")).is_some());
        // Wrapped, multi-item, grouped, distinct, or snapshot-dependent
        // shapes fold via the pipeline instead.
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) + 1 FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(v), COUNT(*) FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) FROM t GROUP BY g")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT COUNT(DISTINCT v) FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(v) FROM t LIMIT 1")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT SUM(current_snapshot()) FROM t")).is_none());
        assert!(inner_agg_shape(&parsed("SELECT v FROM t")).is_none());
    }

    #[test]
    fn shape_eligibility_rules() {
        assert!(shape_eligible(&parsed("SELECT v FROM t")));
        assert!(shape_eligible(&parsed(
            "SELECT current_snapshot(), v FROM t WHERE v > 0"
        )));
        assert!(!shape_eligible(&parsed("SELECT a FROM t, u")));
        assert!(!shape_eligible(&parsed(
            "SELECT v FROM t WHERE v = current_snapshot()"
        )));
    }

    #[test]
    fn sum_folds_and_degrades() {
        let mut acc = InnerAcc::new(AggOp::Sum);
        assert!(acc.fold(Some(Value::Integer(5))));
        assert!(acc.fold(Some(Value::Null)));
        assert!(acc.fold(Some(Value::Integer(-2))));
        assert_eq!(acc.finish(), Value::Integer(3));
        assert!(acc.unfold(Some(Value::Integer(5))));
        assert_eq!(acc.finish(), Value::Integer(-2));
        // A Real input is order-dependent under f64 addition → degrade.
        assert!(!acc.fold(Some(Value::Real(1.5))));
        // Empty sum is NULL, like the engine's aggregate.
        let mut empty = InnerAcc::new(AggOp::Sum);
        assert!(empty.fold(Some(Value::Null)));
        assert_eq!(empty.finish(), Value::Null);
    }

    #[test]
    fn sum_guard_trips_on_abs_overflow() {
        let mut acc = InnerAcc::new(AggOp::Sum);
        assert!(acc.fold(Some(Value::Integer(i64::MAX))));
        assert!(acc.guard_ok());
        // Net sum stays small, but |·|-mass exceeds i64::MAX: a sequential
        // scan-order prefix could overflow, so exactness is gone.
        assert!(acc.fold(Some(Value::Integer(i64::MIN))));
        assert!(!acc.guard_ok());
    }

    #[test]
    fn avg_guard_is_tighter() {
        let mut acc = InnerAcc::new(AggOp::Avg);
        assert!(acc.fold(Some(Value::Integer(1 << 52))));
        assert!(acc.fold(Some(Value::Integer(1 << 52))));
        // |sum| = 2^53 exactly: still representable, still exact.
        assert!(acc.guard_ok());
        assert!(acc.fold(Some(Value::Integer(1))));
        assert!(!acc.guard_ok());
        // The SUM guard would tolerate the same mass.
        let mut sum = InnerAcc::new(AggOp::Sum);
        assert!(sum.fold(Some(Value::Integer(1 << 53))));
        assert!(sum.guard_ok());
    }

    #[test]
    fn count_star_vs_count_arg() {
        let mut star = InnerAcc::new(AggOp::Count);
        assert!(star.fold(None));
        assert!(star.fold(None));
        assert_eq!(star.finish(), Value::Integer(2));
        let mut arg = InnerAcc::new(AggOp::Count);
        assert!(arg.fold(Some(Value::Null)));
        assert!(arg.fold(Some(Value::text("x"))));
        assert_eq!(arg.finish(), Value::Integer(1));
        assert!(arg.unfold(Some(Value::text("x"))));
        assert_eq!(arg.finish(), Value::Integer(0));
    }

    #[test]
    fn minmax_strict_first_wins() {
        let mut acc = InnerAcc::new(AggOp::Min);
        assert!(acc.fold(Some(Value::Integer(2))));
        // Real(2.0) ties Integer(2) under the SQL order; the strict rule
        // keeps the first-seen representation, like the engine.
        assert!(acc.fold(Some(Value::Real(2.0))));
        assert_eq!(acc.finish(), Value::Integer(2));
        assert!(acc.fold(Some(Value::Integer(1))));
        assert_eq!(acc.finish(), Value::Integer(1));
    }
}
