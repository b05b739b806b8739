//! Standing retrospective queries: `MAINTAIN QUERY` registration and
//! per-commit incremental maintenance.
//!
//! A standing query is a mechanism call whose result table outlives the
//! batch pass: registration runs one batch over the backlog (the
//! snapshot set Qs selects at registration time) to *seed* the result
//! table, then every snapshot committed afterwards is folded in
//! incrementally. The maintained table is byte-identical, at every
//! point, to what a fresh batch run over the same snapshot id sequence
//! would produce — the differential proptest in
//! `tests/standing_differential.rs` asserts exactly that.
//!
//! Per-commit cost is proportional to changed pages, not database size:
//! the [`Maintainer`] keeps one run of the shared driver
//! ([`crate::mechanism`]) alive across commits — its delta-chain source,
//! whose scanner cache holds the previous snapshot's filtered rows, and
//! the mechanism's fold state (the write-skipping table fold, the running
//! variable, the previous snapshot of the interval fold). Registration is
//! that run over the backlog; each commit runs it over the two-snapshot
//! chain `[last, new]`, so the SPT is built incrementally and the scan
//! touches only the pages that changed. The folds report their row-level
//! effects, which become the pushed result deltas.
//!
//! Statement form:
//!
//! ```sql
//! MAINTAIN QUERY top_balances AS
//!   SELECT AggregateDataInTable(snap_id, 'SELECT cn, l_time FROM lineitem',
//!                               'Result', '(l_time,max)')
//!   FROM SnapIds;
//! ```
//!
//! Eligibility (enforced at registration, surfaced at PREPARE as
//! `RQL210`): the mechanism arguments must be string literals, and Qq
//! must be deterministic (no UDF calls) — a standing query's pushed
//! result deltas must be reproducible from the snapshot stream alone.

use std::sync::Arc;

use rql_sqlengine::lexer::Token;
use rql_sqlengine::{parse_select, tokenize_spanned, Database, QueryResult, Result, Row, SqlError};

use crate::analyze::program::extract_call_texts;
use crate::analyze::{MechanismCall, MechanismKind};
use crate::delta::DeltaPolicy;
use crate::fold::FoldEffect;
use crate::mechanism::{Run, Source, Target};
use crate::report::{IterationReport, RqlReport};
use crate::session::RqlSession;

/// A parsed `MAINTAIN QUERY name AS <mechanism call>` statement.
#[derive(Debug, Clone)]
pub struct MaintainSpec {
    /// The standing query's registered name.
    pub name: String,
    /// Which mechanism maintains the result table.
    pub kind: MechanismKind,
    /// The backlog Qs (evaluated once, at registration).
    pub qs: String,
    /// The per-snapshot Qq.
    pub qq: String,
    /// The maintained result table.
    pub table: String,
    /// Aggregate spec (AggVar / AggTable forms).
    pub spec: Option<String>,
    /// The inner mechanism statement as written (for `check_program`).
    pub call_text: String,
}

/// Detect the `MAINTAIN QUERY <name> AS` prefix. Returns the query name
/// and the byte offset of the inner statement within `text`.
pub fn maintain_prefix(text: &str) -> Option<(String, usize)> {
    let tokens = tokenize_spanned(text).ok()?;
    let word = |i: usize| -> Option<&str> {
        match &tokens.get(i)?.token {
            Token::Word(w) => Some(w.as_str()),
            _ => None,
        }
    };
    if !word(0)?.eq_ignore_ascii_case("maintain") || !word(1)?.eq_ignore_ascii_case("query") {
        return None;
    }
    let name = word(2)?.to_owned();
    if !word(3)?.eq_ignore_ascii_case("as") {
        return None;
    }
    let inner_start = tokens.get(4)?.span.start;
    Some((name, inner_start))
}

/// Parse a full `MAINTAIN QUERY` statement. `Ok(None)` when `text` is
/// not a MAINTAIN statement at all; `Err` when it is one but malformed
/// or ineligible.
pub fn parse_maintain(text: &str) -> Result<Option<MaintainSpec>> {
    let Some((name, inner_start)) = maintain_prefix(text) else {
        return Ok(None);
    };
    let call_text = text[inner_start..].trim().trim_end_matches(';').to_owned();
    let Some(call) = extract_call_texts(&call_text) else {
        return Err(SqlError::Invalid(format!(
            "[RQL210] MAINTAIN QUERY {name}: the body must be a mechanism call with \
             literal Qq/T/spec arguments (dynamic arguments cannot be re-evaluated \
             per commit)"
        )));
    };
    let spec = MaintainSpec {
        name,
        kind: call.kind,
        qs: call.qs,
        qq: call.qq,
        table: call.table,
        spec: call.spec,
        call_text,
    };
    if let Some(reason) = maintain_ineligibility(&spec.qq) {
        return Err(SqlError::Invalid(format!(
            "[RQL210] MAINTAIN QUERY {}: {reason}",
            spec.name
        )));
    }
    Ok(Some(spec))
}

/// Why a Qq cannot back a standing query, or `None` when it can.
/// Mirrored by the `RQL210` analyzer diagnostic.
pub fn maintain_ineligibility(qq: &str) -> Option<String> {
    let parsed = match parse_select(qq) {
        Ok(p) => p,
        Err(e) => return Some(format!("Qq does not parse: {e}")),
    };
    if parsed.as_of.is_some() {
        return Some(
            "Qq must not contain AS OF; the maintainer binds the snapshot per commit".into(),
        );
    }
    if !crate::memoize::memo_eligible(&parsed) {
        return Some(
            "Qq calls a user-defined function; a standing query's pushed result \
             deltas must be reproducible from the snapshot stream alone"
                .into(),
        );
    }
    None
}

/// The per-snapshot change to a maintained result table — what gets
/// framed and pushed to subscribers.
#[derive(Debug, Clone, Default)]
pub struct ResultDelta {
    /// The snapshot that caused the change.
    pub snap_id: u64,
    /// Rows now present that were not before (multiset semantics).
    pub added: Vec<Row>,
    /// Rows removed (multiset semantics).
    pub removed: Vec<Row>,
}

/// Maintenance counters, exported through METRICS per registered query.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintainStats {
    /// Snapshots folded by the registration batch pass.
    pub snapshots_seeded: u64,
    /// Snapshots folded incrementally since registration.
    pub snapshots_maintained: u64,
    /// Pagelog page fetches across all maintenance passes.
    pub pages_scanned: u64,
    /// Pages served from the delta cache or pruned instead of fetched.
    pub pages_skipped: u64,
    /// Rows shipped in result-delta frames (added + removed).
    pub rows_pushed: u64,
    /// AggTable groups skipped by the write-skipping fold (records and
    /// stored row both unchanged since the previous pass).
    pub groups_skipped: u64,
}

/// One registered standing query's live maintenance state.
///
/// Not `Sync`: a maintainer belongs to whoever processes commits for it
/// (the standing engine serializes advances per query).
pub struct Maintainer {
    snap: Arc<Database>,
    aux: Arc<Database>,
    spec: MaintainSpec,
    run: Run,
    last_sid: Option<u64>,
    stats: MaintainStats,
}

impl Maintainer {
    /// Register a standing query on a session: validate via
    /// [`RqlSession::check_program`], refuse an existing result table,
    /// run the seeding batch pass over the backlog Qs, and return the
    /// live maintainer plus the seed report.
    pub fn register(session: &RqlSession, spec: MaintainSpec) -> Result<(Maintainer, RqlReport)> {
        let _span = rql_trace::span(rql_trace::SpanId::StandingSeed);
        if let Some(reason) = maintain_ineligibility(&spec.qq) {
            return Err(SqlError::Invalid(format!(
                "[RQL210] MAINTAIN QUERY {}: {reason}",
                spec.name
            )));
        }
        let program_src = format!("{};", spec.call_text);
        let program = crate::analyze::parse_program(&program_src).map_err(|d| {
            SqlError::Invalid(format!("MAINTAIN QUERY {}: {}", spec.name, d.message))
        })?;
        let analysis = session.check_program(&program)?;
        if analysis.has_errors() {
            return Err(SqlError::Invalid(format!(
                "MAINTAIN QUERY {} failed validation:\n{}",
                spec.name,
                analysis.render("maintain", &program_src)
            )));
        }
        let snap = Arc::clone(session.snap_db());
        let aux = Arc::clone(session.aux_db());
        let call = MechanismCall::new(
            spec.kind,
            &spec.qs,
            &spec.qq,
            &spec.table,
            spec.spec.as_deref(),
        );
        // The seed is the driver over the backlog on the delta chain the
        // maintainer then extends commit by commit.
        let mut run = Run::new(&snap, &aux, &call, Target::Fresh, session.memo(), |qq| {
            Ok(Source::chain(qq, DeltaPolicy::Auto, spec.kind))
        })?;
        let report = run.run(&snap, &aux, &spec.qs)?;
        let mut maintainer = Maintainer {
            snap,
            aux,
            spec,
            run,
            last_sid: report.iterations.last().map(|it| it.snap_id),
            stats: MaintainStats {
                snapshots_seeded: report.iterations.len() as u64,
                ..Default::default()
            },
        };
        maintainer.account(&report.iterations);
        Ok((maintainer, report))
    }

    /// The registered spec.
    pub fn spec(&self) -> &MaintainSpec {
        &self.spec
    }

    /// Maintenance counters so far.
    pub fn stats(&self) -> MaintainStats {
        self.stats
    }

    /// The last snapshot folded into the result table.
    pub fn last_sid(&self) -> Option<u64> {
        self.last_sid
    }

    /// Full current result table content, in scan order (what SUBSCRIBE
    /// sends before the delta stream starts).
    pub fn current_result(&self) -> Result<QueryResult> {
        self.aux
            .query(&format!("SELECT * FROM {}", self.spec.table))
    }

    /// Fold one committed snapshot into the result table and return the
    /// result-table delta it caused. Out-of-order or duplicate commits
    /// (sid ≤ last maintained) are ignored.
    pub fn advance(&mut self, sid: u64) -> Result<ResultDelta> {
        let _span = rql_trace::span_arg(rql_trace::SpanId::StandingMaintain, sid);
        let mut delta = ResultDelta {
            snap_id: sid,
            ..Default::default()
        };
        if self.last_sid.is_some_and(|last| sid <= last) {
            return Ok(delta);
        }
        self.run.table.effects.0 = Some(Vec::new());
        let report = self.run.iterate(&self.snap, &self.aux, &[sid])?;
        self.run.finish(&self.aux, RqlReport::default())?;
        self.account(&report);
        for effect in self.run.table.effects.0.take().into_iter().flatten() {
            match effect {
                FoldEffect::Inserted(row) => delta.added.push(row),
                FoldEffect::Updated { old, new } => {
                    delta.removed.push(old);
                    delta.added.push(new);
                }
                FoldEffect::Unchanged => {}
            }
        }
        self.last_sid = Some(sid);
        self.stats.snapshots_maintained += 1;
        self.stats.rows_pushed += (delta.added.len() + delta.removed.len()) as u64;
        Ok(delta)
    }

    fn account(&mut self, iterations: &[IterationReport]) {
        for it in iterations {
            self.stats.pages_scanned += it.qq_stats.io.pagelog_reads + it.qq_stats.io.db_reads;
            self.stats.pages_skipped +=
                it.qq_stats.pages_skipped_delta + it.qq_stats.pages_pruned_filter;
        }
        self.stats.groups_skipped = self.run.fold.groups_skipped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintain_prefix_detection() {
        let (name, off) =
            maintain_prefix("MAINTAIN QUERY top AS SELECT CollateData(1, 'q', 't') FROM snapids")
                .unwrap();
        assert_eq!(name, "top");
        assert!(off > 0);
        assert!(maintain_prefix("SELECT 1").is_none());
        assert!(maintain_prefix("maintain query x as select 1").is_some());
    }

    #[test]
    fn parse_rejects_dynamic_args() {
        let err = parse_maintain(
            "MAINTAIN QUERY q AS SELECT CollateData(snap_id, qq_col, 'T') FROM snapids",
        )
        .unwrap_err();
        assert!(err.to_string().contains("RQL210"), "{err}");
    }

    #[test]
    fn parse_rejects_udf_qq() {
        let err = parse_maintain(
            "MAINTAIN QUERY q AS SELECT CollateData(snap_id, 'SELECT my_udf(v) FROM t', 'T') \
             FROM snapids",
        )
        .unwrap_err();
        assert!(err.to_string().contains("RQL210"), "{err}");
    }

    #[test]
    fn parse_accepts_literal_call() {
        let spec = parse_maintain(
            "MAINTAIN QUERY balances AS SELECT AggregateDataInTable(snap_id, \
             'SELECT cn, v FROM t', 'Result', '(v,max)') FROM snapids",
        )
        .unwrap()
        .unwrap();
        assert_eq!(spec.name, "balances");
        assert_eq!(spec.kind, MechanismKind::AggTable);
        assert_eq!(spec.table, "Result");
        assert_eq!(spec.spec.as_deref(), Some("(v,max)"));
    }
}
