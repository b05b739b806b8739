//! Mechanism-spec validation: the (Qs, Qq, T, spec) quadruple of an RQL
//! mechanism call, checked against the runtime's actual contracts.
//!
//! Every error here mirrors a failure the mechanism driver in
//! [`crate::mechanism`] would raise mid-loop — after Qs ran and possibly
//! after result rows were already folded. The point of this module is to
//! surface the same messages before any snapshot is opened, plus the
//! warnings (RQL014/018/019) the runtime cannot see because it has
//! already coerced the values.

use rql_sqlengine::{parse_select, ColumnType, SelectStmt};

use crate::aggregate::{parse_col_func_pairs, AggOp};
use crate::analyze::diag::{Code, Diagnostic, SourceKind};
use crate::analyze::env::SchemaEnv;
use crate::analyze::resolve::{check_select, find_word_span, OutputCol, QueryFacts};
use crate::analyze::rewrite_safety::select_uses_current_snapshot;
use crate::fold::{END_SNAPSHOT_COL, START_SNAPSHOT_COL};

/// Which of the paper's four mechanisms a call targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismKind {
    /// `CollateData(Qs, Qq, T)` (§2.1).
    Collate,
    /// `AggregateDataInVariable(Qs, Qq, T, AggFunc)` (§2.2).
    AggVar,
    /// `AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)` (§2.3).
    AggTable,
    /// `CollateDataIntoIntervals(Qs, Qq, T)` (§2.4).
    Intervals,
}

impl MechanismKind {
    /// The programmer-facing UDF name (lowercase).
    pub fn udf_name(self) -> &'static str {
        match self {
            MechanismKind::Collate => "collatedata",
            MechanismKind::AggVar => "aggregatedatainvariable",
            MechanismKind::AggTable => "aggregatedataintable",
            MechanismKind::Intervals => "collatedataintointervals",
        }
    }

    /// Map a UDF name to its mechanism.
    pub fn from_udf_name(name: &str) -> Option<MechanismKind> {
        match name.to_ascii_lowercase().as_str() {
            "collatedata" => Some(MechanismKind::Collate),
            "aggregatedatainvariable" => Some(MechanismKind::AggVar),
            "aggregatedataintable" => Some(MechanismKind::AggTable),
            "collatedataintointervals" => Some(MechanismKind::Intervals),
            _ => None,
        }
    }

    /// Whether this mechanism takes a fourth spec argument.
    pub fn takes_spec(self) -> bool {
        matches!(self, MechanismKind::AggVar | MechanismKind::AggTable)
    }
}

/// One mechanism invocation under analysis.
#[derive(Debug, Clone, Copy)]
pub struct MechanismCall<'a> {
    /// Which mechanism.
    pub kind: MechanismKind,
    /// Snapshot-set query (runs on the auxiliary database).
    pub qs: &'a str,
    /// Per-snapshot query (runs on the snapshotable database).
    pub qq: &'a str,
    /// Result table name.
    pub table: &'a str,
    /// Aggregate function / pairs list, when the mechanism takes one.
    pub spec: Option<&'a str>,
}

impl<'a> MechanismCall<'a> {
    /// A call from its four (or, for the aggregating mechanisms, five)
    /// arguments.
    pub fn new(
        kind: MechanismKind,
        qs: &'a str,
        qq: &'a str,
        table: &'a str,
        spec: Option<&'a str>,
    ) -> Self {
        MechanismCall {
            kind,
            qs,
            qq,
            table,
            spec,
        }
    }
}

/// What the checker learned (for downstream passes and env threading).
#[derive(Debug, Clone, Default)]
pub struct MechanismFacts {
    /// Qq parsed (present even when resolution found problems).
    pub qq_parsed: Option<SelectStmt>,
    /// Qs parsed.
    pub qs_parsed: Option<SelectStmt>,
    /// Qq's inferred output columns.
    pub qq_output: Option<Vec<OutputCol>>,
    /// The result table T's column names, when inferable.
    pub result_columns: Option<Vec<String>>,
    /// Tables Qq referenced that the current snapshot catalog lacks
    /// (pre-flight retries against older snapshot catalogs).
    pub qq_unknown_tables: Vec<String>,
}

/// Validate one mechanism call. `snap_env` is the snapshotable
/// database's catalog (what Qq sees), `aux_env` the auxiliary one (what
/// Qs sees and where T will be created).
pub fn check_mechanism(
    call: &MechanismCall<'_>,
    snap_env: &SchemaEnv,
    aux_env: &SchemaEnv,
    diags: &mut Vec<Diagnostic>,
) -> MechanismFacts {
    let mut facts = MechanismFacts::default();
    check_qs(call.qs, aux_env, diags, &mut facts);

    if aux_env.has_table(call.table) {
        diags.push(Diagnostic::new(
            Code::ResultTableExists,
            format!("result table {} already exists", call.table),
            SourceKind::Spec,
            None,
        ));
    }

    match parse_select(call.qq) {
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::QqParseError,
                format!("Qq does not parse: {}", e.message()),
                SourceKind::Qq,
                e.span(),
            ));
            return facts;
        }
        Ok(parsed) => {
            let qf = check_select(&parsed, snap_env, call.qq, SourceKind::Qq, diags);
            facts.qq_output = qf.output.clone();
            facts.qq_unknown_tables = qf.unknown_tables;
            facts.qq_parsed = Some(parsed);
            check_mechanism_spec(call, &qf.output, diags, &mut facts);
        }
    }
    facts
}

/// Qs-side checks: parse, resolve against the auxiliary catalog, and the
/// single-integer-column contract of `mechanism::snapshot_set`.
fn check_qs(
    qs: &str,
    aux_env: &SchemaEnv,
    diags: &mut Vec<Diagnostic>,
    facts: &mut MechanismFacts,
) {
    let parsed = match parse_select(qs) {
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::QsParseError,
                format!("Qs does not parse: {}", e.message()),
                SourceKind::Qs,
                e.span(),
            ));
            return;
        }
        Ok(p) => p,
    };
    let mut qs_diags = Vec::new();
    let qf: QueryFacts = check_select(&parsed, aux_env, qs, SourceKind::Qs, &mut qs_diags);
    // Unknown tables in Qs get their own code: the near-universal cause
    // is querying the snapshotable database's tables where only the
    // auxiliary catalog (SnapIds + result tables) is visible.
    for mut d in qs_diags {
        if d.code == Code::UnknownTable {
            d = Diagnostic::new(
                Code::QsUnknownTable,
                format!(
                    "{}; Qs runs on the auxiliary database (its snapshot \
                     catalog is the SnapIds table)",
                    d.message
                ),
                d.source,
                d.span,
            );
        }
        diags.push(d);
    }
    if select_uses_current_snapshot(&parsed) {
        diags.push(Diagnostic::new(
            Code::CurrentSnapshotInQs,
            "current_snapshot() in Qs has no loop to bind to; Qs selects \
             the snapshot set itself",
            SourceKind::Qs,
            find_word_span(qs, "current_snapshot", 0),
        ));
    }
    if let Some(out) = &qf.output {
        if out.len() != 1 {
            diags.push(Diagnostic::new(
                Code::QsNotSingleColumn,
                format!(
                    "Qs must return a single snapshot-id column, got {}",
                    out.len()
                ),
                SourceKind::Qs,
                None,
            ));
        } else if !matches!(out[0].ty, ColumnType::Integer | ColumnType::Any) {
            diags.push(Diagnostic::new(
                Code::QsNonIntegerColumn,
                format!(
                    "Qs column {} has {} affinity; snapshot ids are integers \
                     and non-integer values fail at runtime",
                    out[0].name,
                    type_name(out[0].ty)
                ),
                SourceKind::Qs,
                find_word_span(qs, &out[0].name, 0),
            ));
        }
    }
    facts.qs_parsed = Some(parsed);
}

/// The per-mechanism contract on Qq's output and the spec argument.
fn check_mechanism_spec(
    call: &MechanismCall<'_>,
    output: &Option<Vec<OutputCol>>,
    diags: &mut Vec<Diagnostic>,
    facts: &mut MechanismFacts,
) {
    match call.kind {
        MechanismKind::Collate => {
            if let Some(out) = output {
                check_duplicates(out.iter().map(|c| c.name.as_str()), diags);
                facts.result_columns = Some(out.iter().map(|c| c.name.clone()).collect());
            }
        }
        MechanismKind::AggVar => {
            let op = check_agg_func(call.spec.unwrap_or(""), diags);
            if let Some(out) = output {
                if out.len() != 1 {
                    diags.push(Diagnostic::new(
                        Code::AggVarNotSingleColumn,
                        format!(
                            "AggregateDataInVariable expects Qq to return one column, got {}",
                            out.len()
                        ),
                        SourceKind::Qq,
                        None,
                    ));
                } else {
                    if let Some(op) = op {
                        check_numeric_agg(op, &out[0], call.qq, SourceKind::Qq, diags);
                    }
                    facts.result_columns = Some(vec![out[0].name.clone()]);
                }
            }
        }
        MechanismKind::AggTable => {
            let spec = call.spec.unwrap_or("");
            let pairs = match parse_col_func_pairs(spec) {
                Err(e) => {
                    diags.push(Diagnostic::new(
                        Code::BadAggFunc,
                        e.message().to_owned(),
                        SourceKind::Spec,
                        None,
                    ));
                    return;
                }
                Ok(p) => p,
            };
            let Some(out) = output else { return };
            let mut table_columns: Vec<String> = out.iter().map(|c| c.name.clone()).collect();
            let mut agg_positions = Vec::new();
            for (col, op) in &pairs {
                match out.iter().position(|c| c.name.eq_ignore_ascii_case(col)) {
                    None => {
                        diags.push(Diagnostic::new(
                            Code::AggColumnNotInQq,
                            format!("aggregated column {col} not in Qq output"),
                            SourceKind::Spec,
                            find_word_span(spec, col, 0),
                        ));
                    }
                    Some(pos) => {
                        agg_positions.push(pos);
                        check_numeric_agg(*op, &out[pos], spec, SourceKind::Spec, diags);
                        if op.needs_companions() {
                            table_columns.push(format!("{col}__avg_sum"));
                            table_columns.push(format!("{col}__avg_cnt"));
                        }
                    }
                }
            }
            if !out.is_empty() && agg_positions.len() == out.len() {
                diags.push(Diagnostic::new(
                    Code::NoGroupingColumns,
                    "every Qq column is aggregated; use AggregateDataInVariable instead",
                    SourceKind::Qq,
                    None,
                ));
            }
            check_duplicates(table_columns.iter().map(String::as_str), diags);
            facts.result_columns = Some(table_columns);
        }
        MechanismKind::Intervals => {
            let Some(out) = output else { return };
            for c in out {
                if c.name.eq_ignore_ascii_case(START_SNAPSHOT_COL)
                    || c.name.eq_ignore_ascii_case(END_SNAPSHOT_COL)
                {
                    diags.push(Diagnostic::new(
                        Code::IntervalsReservedColumn,
                        format!(
                            "Qq output column {} collides with the lifetime column \
                             CollateDataIntoIntervals adds to T",
                            c.name
                        ),
                        SourceKind::Qq,
                        find_word_span(call.qq, &c.name, 0),
                    ));
                }
            }
            let mut cols: Vec<String> = out.iter().map(|c| c.name.clone()).collect();
            cols.push(START_SNAPSHOT_COL.to_owned());
            cols.push(END_SNAPSHOT_COL.to_owned());
            check_duplicates(cols.iter().map(String::as_str), diags);
            facts.result_columns = Some(cols);
        }
    }
}

/// RQL010 for a single aggregate-function name.
fn check_agg_func(spec: &str, diags: &mut Vec<Diagnostic>) -> Option<AggOp> {
    match AggOp::parse(spec.trim()) {
        Ok(op) => Some(op),
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::BadAggFunc,
                e.message().to_owned(),
                SourceKind::Spec,
                None,
            ));
            None
        }
    }
}

/// RQL014: SUM/AVG over a text-typed column folds lexical garbage.
fn check_numeric_agg(
    op: AggOp,
    col: &OutputCol,
    src: &str,
    source: SourceKind,
    diags: &mut Vec<Diagnostic>,
) {
    if matches!(op, AggOp::Sum | AggOp::Avg) && col.ty == ColumnType::Text {
        diags.push(Diagnostic::new(
            Code::AggTypeMismatch,
            format!(
                "{op}() over text-typed column {}; non-numeric values coerce to 0",
                col.name
            ),
            source,
            find_word_span(src, &col.name, 0),
        ));
    }
}

/// RQL008: two result-table columns sharing a name (the runtime rejects
/// this when it creates T).
fn check_duplicates<'a>(names: impl Iterator<Item = &'a str>, diags: &mut Vec<Diagnostic>) {
    let names: Vec<&str> = names.collect();
    let mut reported = Vec::new();
    for (i, n) in names.iter().enumerate() {
        if names[..i].iter().any(|o| o.eq_ignore_ascii_case(n))
            && !reported.iter().any(|r: &&str| r.eq_ignore_ascii_case(n))
        {
            reported.push(*n);
            diags.push(Diagnostic::new(
                Code::DuplicateOutputColumn,
                format!("Qq output has duplicate column name {n}"),
                SourceKind::Qq,
                None,
            ));
        }
    }
}

fn type_name(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Integer => "INTEGER",
        ColumnType::Real => "REAL",
        ColumnType::Text => "TEXT",
        ColumnType::Any => "ANY",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rql_sqlengine::TableSchema;

    fn envs() -> (SchemaEnv, SchemaEnv) {
        let mut snap = SchemaEnv::new();
        snap.add_table(TableSchema::new(
            "loggedin",
            vec![
                ("l_userid".into(), ColumnType::Text),
                ("l_time".into(), ColumnType::Text),
            ],
        ));
        (snap, SchemaEnv::aux_default())
    }

    fn run(call: MechanismCall<'_>) -> Vec<Diagnostic> {
        let (snap, aux) = envs();
        let mut diags = Vec::new();
        check_mechanism(&call, &snap, &aux, &mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_collate() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT DISTINCT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn qs_contract() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id, name FROM SnapIds",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::QsNotSingleColumn]);
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT l_userid FROM LoggedIn",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::QsUnknownTable]);
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT name FROM SnapIds",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::QsNonIntegerColumn]);
    }

    #[test]
    fn result_table_collision() {
        let (snap, mut aux) = envs();
        aux.add_table(TableSchema::new("t", vec![]));
        let mut diags = Vec::new();
        check_mechanism(
            &MechanismCall {
                kind: MechanismKind::Collate,
                qs: "SELECT snap_id FROM SnapIds",
                qq: "SELECT l_userid FROM LoggedIn",
                table: "t",
                spec: None,
            },
            &snap,
            &aux,
            &mut diags,
        );
        assert_eq!(codes(&diags), vec![Code::ResultTableExists]);
        assert!(diags[0].message.contains("result table t already exists"));
    }

    #[test]
    fn agg_var_contract() {
        let diags = run(MechanismCall {
            kind: MechanismKind::AggVar,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, l_time FROM LoggedIn",
            table: "t",
            spec: Some("count"),
        });
        assert_eq!(codes(&diags), vec![Code::AggVarNotSingleColumn]);
        let diags = run(MechanismCall {
            kind: MechanismKind::AggVar,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT COUNT(*) FROM LoggedIn",
            table: "t",
            spec: Some("median"),
        });
        assert_eq!(codes(&diags), vec![Code::BadAggFunc]);
        // SUM over a text column: executable but suspicious.
        let diags = run(MechanismCall {
            kind: MechanismKind::AggVar,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: Some("sum"),
        });
        assert_eq!(codes(&diags), vec![Code::AggTypeMismatch]);
    }

    #[test]
    fn agg_table_contract() {
        let diags = run(MechanismCall {
            kind: MechanismKind::AggTable,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, COUNT(*) AS cn FROM LoggedIn GROUP BY l_userid",
            table: "t",
            spec: Some("(missing,max)"),
        });
        assert_eq!(codes(&diags), vec![Code::AggColumnNotInQq]);
        let diags = run(MechanismCall {
            kind: MechanismKind::AggTable,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT COUNT(*) AS cn FROM LoggedIn",
            table: "t",
            spec: Some("(cn,max)"),
        });
        assert_eq!(codes(&diags), vec![Code::NoGroupingColumns]);
        let diags = run(MechanismCall {
            kind: MechanismKind::AggTable,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, COUNT(*) AS cn FROM LoggedIn GROUP BY l_userid",
            table: "t",
            spec: Some("max,cn"),
        });
        assert_eq!(codes(&diags), vec![Code::BadAggFunc]);
    }

    #[test]
    fn intervals_reserved_and_duplicates() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Intervals,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid AS start_snapshot FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert!(
            codes(&diags).contains(&Code::IntervalsReservedColumn),
            "{diags:?}"
        );
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id FROM SnapIds",
            qq: "SELECT l_userid, l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::DuplicateOutputColumn]);
    }

    #[test]
    fn current_snapshot_in_qs() {
        let diags = run(MechanismCall {
            kind: MechanismKind::Collate,
            qs: "SELECT snap_id FROM SnapIds WHERE snap_id = current_snapshot()",
            qq: "SELECT l_userid FROM LoggedIn",
            table: "t",
            spec: None,
        });
        assert_eq!(codes(&diags), vec![Code::CurrentSnapshotInQs]);
    }
}
