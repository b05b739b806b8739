//! Whole-program analysis of `.rql` files.
//!
//! An `.rql` program is a `;`-separated list of SQL statements with two
//! comment directives:
//!
//! * `--@aux` — the next statement runs on the auxiliary database
//!   (result-table queries); statements that call a mechanism UDF route
//!   there automatically, everything else runs on the snapshotable
//!   database;
//! * `--@policy off|auto|forced` — the delta policy the program's
//!   mechanism calls assume, enabling the RQL2xx eligibility pass.
//!
//! Mechanism calls use the paper's UDF form:
//!
//! ```sql
//! SELECT CollateData(snap_id, 'SELECT …', 'Result') FROM SnapIds;
//! ```
//!
//! The enclosing SELECT *is* Qs (projected down to the first argument),
//! and the string-literal arguments are Qq / T / spec. Analysis threads
//! a schema environment through the statements — DDL folds in, mechanism
//! calls create their result table in the auxiliary environment — so a
//! later statement sees exactly what the runtime would have created.
//! Diagnostics found inside argument literals are remapped into program
//! byte offsets whenever the literal has no `''` escapes.

use rql_sqlengine::ast::{Expr, InsertSource, SelectItem, SelectStmt, Stmt};
use rql_sqlengine::lexer::{Sym, Token};
use rql_sqlengine::{
    parse_statement, tokenize_spanned, ColumnType, ExecOutcome, QueryResult, Span, TableSchema,
    Value,
};

use crate::analyze::dataflow::{self, DfNode, DfStmt, MechNode, PlainNode};
use crate::analyze::delta::DeltaExplain;
use crate::analyze::diag::{dedupe, Applicability, Code, Diagnostic, Fix, Severity, SourceKind};
use crate::analyze::env::SchemaEnv;
use crate::analyze::mechspec::{MechanismCall, MechanismKind};
use crate::analyze::resolve::check_select;
use crate::analyze::rewrite_safety;
use crate::delta::DeltaPolicy;
use crate::mechanism::Iteration;
use crate::report::RqlReport;
use crate::rewrite::render_select;
use crate::session::RqlSession;
use crate::Result;

/// One statement of a parsed program.
#[derive(Debug, Clone)]
pub struct ProgramStmt {
    /// The statement text (no trailing `;`).
    pub text: String,
    /// Byte offset of `text` within the program source.
    pub offset: usize,
    /// Whether it runs on the auxiliary database.
    pub on_aux: bool,
}

/// A parsed `.rql` program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The full source text (spans index into this).
    pub src: String,
    /// Statements in order.
    pub statements: Vec<ProgramStmt>,
    /// `--@policy` directive, when present.
    pub policy: Option<DeltaPolicy>,
    /// Span of the `--@policy` directive text, when present (anchor for
    /// the RQL204 policy fix).
    pub policy_span: Option<Span>,
}

/// Split a program into statements and directives. A lexical error
/// (unterminated string/comment, bad literal) is returned as the single
/// diagnostic that makes the program unanalyzable.
pub fn parse_program(src: &str) -> std::result::Result<Program, Box<Diagnostic>> {
    let mut policy = None;
    let mut policy_span = None;
    let mut aux_marks: Vec<usize> = Vec::new();
    let mut pos = 0usize;
    for line in src.split_inclusive('\n') {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("--@") {
            let rest = rest.trim();
            if rest.eq_ignore_ascii_case("aux") {
                aux_marks.push(pos);
            } else if let Some(p) = rest
                .to_ascii_lowercase()
                .strip_prefix("policy")
                .map(str::trim)
            {
                let parsed = match p {
                    "off" => Some(DeltaPolicy::Off),
                    "auto" => Some(DeltaPolicy::Auto),
                    "forced" => Some(DeltaPolicy::Forced),
                    _ => None,
                };
                if parsed.is_some() {
                    policy = parsed;
                    let indent = line.len() - trimmed.len();
                    policy_span = Some(Span::new(
                        pos + indent,
                        pos + indent + trimmed.trim_end().len(),
                    ));
                }
            }
        }
        pos += line.len();
    }

    let tokens = match tokenize_spanned(src) {
        Ok(t) => t,
        Err(e) => {
            return Err(Box::new(Diagnostic::new(
                Code::ParseError,
                format!("program does not lex: {}", e.message()),
                SourceKind::Program,
                e.span(),
            )));
        }
    };
    let mut statements = Vec::new();
    let mut group: Vec<&rql_sqlengine::SpannedToken> = Vec::new();
    let mut flush = |group: &mut Vec<&rql_sqlengine::SpannedToken>| {
        if group.is_empty() {
            return;
        }
        let start = group[0].span.start;
        let end = group[group.len() - 1].span.end;
        let mechanism = group.iter().any(
            |t| matches!(&t.token, Token::Word(w) if MechanismKind::from_udf_name(w).is_some()),
        );
        let on_aux = mechanism
            || aux_marks
                .iter()
                .any(|&m| statements_pending(m, start, &statements, src));
        statements.push(ProgramStmt {
            text: src[start..end].to_owned(),
            offset: start,
            on_aux,
        });
        group.clear();
    };
    for t in &tokens {
        if matches!(t.token, Token::Sym(Sym::Semi)) {
            flush(&mut group);
        } else {
            group.push(t);
        }
    }
    flush(&mut group);
    Ok(Program {
        src: src.to_owned(),
        statements,
        policy,
        policy_span,
    })
}

/// Whether an `--@aux` mark at byte `mark` governs the statement
/// starting at `start`: the mark precedes it and no earlier statement
/// sits between them.
fn statements_pending(mark: usize, start: usize, done: &[ProgramStmt], src: &str) -> bool {
    let _ = src;
    mark < start && !done.iter().any(|s| s.offset > mark)
}

/// Program-level analysis result.
#[derive(Debug, Clone, Default)]
pub struct ProgramAnalysis {
    /// All findings, spans in program coordinates.
    pub diagnostics: Vec<Diagnostic>,
    /// Delta explains for the program's mechanism calls, in order
    /// (present when `--@policy` was given).
    pub delta: Vec<DeltaExplain>,
    /// Number of mechanism calls found.
    pub mechanism_count: usize,
    /// Qq tables missing from the snapshot catalog, across every
    /// mechanism call (the session pre-flight widens with historical
    /// snapshots and re-analyzes when this is non-empty).
    pub qq_unknown_tables: Vec<String>,
}

impl ProgramAnalysis {
    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Render every diagnostic against the program source.
    pub fn render(&self, file: &str, src: &str) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(file, src))
            .collect::<Vec<_>>()
            .join("\n\n")
    }
}

/// Analyze a whole program. `snap_env`/`aux_env` are the starting
/// catalogs (empty + `aux_default` for standalone files; live captures
/// for a session pre-flight of a script).
pub fn analyze_program(
    program: &Program,
    snap_env: &SchemaEnv,
    aux_env: &SchemaEnv,
) -> ProgramAnalysis {
    let mut snap_env = snap_env.clone();
    let mut aux_env = aux_env.clone();
    let mut out = ProgramAnalysis::default();
    let mut df: Vec<DfStmt> = Vec::with_capacity(program.statements.len());

    for stmt in &program.statements {
        let text_span = Span::new(stmt.offset, stmt.offset + stmt.text.len());
        let range = dataflow::stmt_range(&program.src, text_span);
        // `MAINTAIN QUERY name AS <call>` is not a SQL statement; peel
        // the prefix and analyze the inner mechanism call in place (its
        // result table enters the aux catalog like any batch call's), on
        // top of the standing-query eligibility rules (RQL210).
        if let Some((name, inner_off)) = crate::maintain::maintain_prefix(&stmt.text) {
            let inner = ProgramStmt {
                text: stmt.text[inner_off..].to_owned(),
                offset: stmt.offset + inner_off,
                on_aux: true,
            };
            let call = parse_statement(&inner.text)
                .ok()
                .and_then(|p| extract_mechanism_call(&p, &inner, &mut out.diagnostics));
            match call {
                Some(call) => {
                    if let Some(reason) = crate::maintain::maintain_ineligibility(&call.qq) {
                        out.diagnostics.push(Diagnostic::new(
                            Code::MaintainIneligible,
                            format!("MAINTAIN QUERY {name}: {reason}"),
                            SourceKind::Program,
                            call.fn_span.or_else(|| stmt_head_span(stmt)),
                        ));
                    }
                    df.push(DfStmt {
                        node: DfNode::Mechanism(Box::new(mech_node(&call))),
                        range,
                        text_span,
                    });
                    analyze_call(
                        &call,
                        &inner,
                        program.policy,
                        &snap_env,
                        &mut aux_env,
                        &mut out,
                    );
                }
                None => {
                    out.diagnostics.push(Diagnostic::new(
                        Code::MaintainIneligible,
                        format!(
                            "MAINTAIN QUERY {name}: the body must be a mechanism call with \
                             literal Qq/T/spec arguments (dynamic arguments cannot be \
                             re-evaluated per commit)"
                        ),
                        SourceKind::Program,
                        stmt_head_span(stmt),
                    ));
                    df.push(DfStmt {
                        node: DfNode::Opaque,
                        range,
                        text_span,
                    });
                }
            }
            continue;
        }
        let parsed = match parse_statement(&stmt.text) {
            Err(e) => {
                out.diagnostics.push(Diagnostic::new(
                    Code::ParseError,
                    format!("statement does not parse: {}", e.message()),
                    SourceKind::Program,
                    e.span()
                        .map(|s| s.offset(stmt.offset))
                        .or_else(|| stmt_head_span(stmt)),
                ));
                df.push(DfStmt {
                    node: DfNode::Opaque,
                    range,
                    text_span,
                });
                continue;
            }
            Ok(p) => p,
        };
        if let Some(call) = extract_mechanism_call(&parsed, stmt, &mut out.diagnostics) {
            df.push(DfStmt {
                node: DfNode::Mechanism(Box::new(mech_node(&call))),
                range,
                text_span,
            });
            analyze_call(
                &call,
                stmt,
                program.policy,
                &snap_env,
                &mut aux_env,
                &mut out,
            );
            continue;
        }
        // A statement naming a mechanism UDF that didn't extract has
        // dynamic arguments (or a malformed call): it may read or define
        // anything, so the def-use passes stand down for the program.
        let node = if stmt_names_mechanism(&stmt.text) {
            DfNode::Opaque
        } else {
            DfNode::Plain(plain_node(&parsed, stmt))
        };
        df.push(DfStmt {
            node,
            range,
            text_span,
        });
        let env = if stmt.on_aux { &aux_env } else { &snap_env };
        check_plain_statement(&parsed, stmt, env, &mut out.diagnostics);
        let target = if stmt.on_aux {
            &mut aux_env
        } else {
            &mut snap_env
        };
        apply_statement_ddl(&parsed, stmt, target);
    }
    dataflow::check_dataflow(&program.src, program.policy, &df, &mut out.diagnostics);
    attach_policy_fix(program, &mut out);
    dedupe(&mut out.diagnostics);
    out
}

/// Attach the `--@policy off` fix to RQL204 advisories: the advisory
/// says the auto policy falls back to the sequential path anyway, so
/// declaring `off` states the reality and silences the advisory without
/// changing results. Machine-applicable only when the directive governs
/// a single mechanism call — with several, another call might genuinely
/// ride the delta path and the edit would deoptimize it.
fn attach_policy_fix(program: &Program, out: &mut ProgramAnalysis) {
    let Some(pspan) = program.policy_span else {
        return;
    };
    let applicability = if out.mechanism_count == 1 {
        Applicability::MachineApplicable
    } else {
        Applicability::MaybeIncorrect
    };
    for d in &mut out.diagnostics {
        if d.code == Code::AutoDeltaFallback && d.fix.is_none() {
            d.fix = Some(Fix {
                span: pspan,
                replacement: "--@policy off".to_owned(),
                applicability,
            });
        }
    }
}

/// Whether the statement text names a mechanism UDF at all.
fn stmt_names_mechanism(text: &str) -> bool {
    tokenize_spanned(text).is_ok_and(|tokens| {
        tokens.iter().any(
            |t| matches!(&t.token, Token::Word(w) if MechanismKind::from_udf_name(w).is_some()),
        )
    })
}

/// Dataflow facts for an extracted mechanism call.
fn mech_node(call: &ExtractedCall) -> MechNode {
    let qq_parsed = rql_sqlengine::parse_select(&call.qq).ok();
    let qs_reads = call
        .qs_select
        .from
        .iter()
        .chain(call.qs_select.joins.iter().map(|j| &j.table))
        .map(|t| t.name.to_ascii_lowercase())
        .collect();
    MechNode {
        kind: call.kind,
        table: call.table.to_ascii_lowercase(),
        qs_reads,
        qs_canon: call.qs_text.clone(),
        qq_canon: qq_parsed.as_ref().map(render_select),
        memo_eligible: qq_parsed
            .as_ref()
            .is_some_and(crate::memoize::memo_eligible),
        spec: call.spec.clone(),
        fn_span: call.fn_span,
        enclosing: call.enclosing.clone(),
        call_item: call.call_item.clone(),
    }
}

/// Dataflow facts for a plain statement: tables it reads or mutates,
/// tables its DDL creates.
fn plain_node(parsed: &Stmt, stmt: &ProgramStmt) -> PlainNode {
    fn read_select(
        select: &rql_sqlengine::ast::SelectStmt,
        offset: usize,
        reads: &mut Vec<(String, Option<Span>)>,
    ) {
        for t in select
            .from
            .iter()
            .chain(select.joins.iter().map(|j| &j.table))
        {
            reads.push((
                t.name.to_ascii_lowercase(),
                t.span.map(|s| s.offset(offset)),
            ));
        }
    }
    let mut reads: Vec<(String, Option<Span>)> = Vec::new();
    let mut writes: Vec<String> = Vec::new();
    match parsed {
        Stmt::Select(select) => read_select(select, stmt.offset, &mut reads),
        Stmt::CreateTableAs { name, select, .. } => {
            read_select(select, stmt.offset, &mut reads);
            writes.push(name.to_ascii_lowercase());
        }
        Stmt::Insert { table, source, .. } => {
            // Mutating a table counts as using it: an INSERT into a
            // result table keeps the table live.
            reads.push((
                table.to_ascii_lowercase(),
                crate::analyze::resolve::find_word_span(&stmt.text, table, 0)
                    .map(|s| s.offset(stmt.offset)),
            ));
            if let InsertSource::Select(select) = source {
                read_select(select, stmt.offset, &mut reads);
            }
        }
        Stmt::Update { table, .. } | Stmt::Delete { table, .. } => {
            reads.push((
                table.to_ascii_lowercase(),
                crate::analyze::resolve::find_word_span(&stmt.text, table, 0)
                    .map(|s| s.offset(stmt.offset)),
            ));
        }
        Stmt::CreateTable { name, .. } => writes.push(name.to_ascii_lowercase()),
        _ => {}
    }
    PlainNode {
        on_aux: stmt.on_aux,
        reads,
        writes,
    }
}

/// Execute a parsed program on a session (the differential harness:
/// every program `rqlcheck` accepts must run without a semantic error).
pub fn run_program(session: &RqlSession, program: &Program) -> Result<()> {
    run_program_with_reports(session, program).map(|_| ())
}

/// Everything a program execution produced, for callers (the `rqld`
/// server) that ship results and cost reports over a wire instead of
/// printing them.
#[derive(Debug, Default)]
pub struct ProgramRun {
    /// Rows of every top-level SELECT that was not a mechanism call, in
    /// statement order.
    pub tables: Vec<QueryResult>,
    /// Mechanism reports as `(result_table, report)`, in invocation
    /// order (API-form dispatches and UDF-form invocations alike).
    pub reports: Vec<(String, RqlReport)>,
    /// Snapshot ids the program declared, in order.
    pub snapshots: Vec<u64>,
}

/// Execute a program, capturing SELECT results and mechanism reports.
///
/// Mechanism-call statements whose Qq/T/spec arguments are string
/// literals dispatch through the session API form under the program's
/// `--@policy`, so delta-eligible programs actually take the delta path
/// (and report `pages_skipped`); the UDF form — kept for dynamic
/// arguments — always runs the sequential loop.
pub fn run_program_with_reports(session: &RqlSession, program: &Program) -> Result<ProgramRun> {
    let mut out = ProgramRun::default();
    let iteration = Iteration::Delta(program.policy.unwrap_or(DeltaPolicy::Off));
    for stmt in &program.statements {
        // In a batch run, `MAINTAIN QUERY` executes its seed pass — one
        // mechanism run over the backlog Qs — which is byte-identical to
        // what registration would leave in the result table. (Standing
        // registration, which keeps maintaining afterwards, is the
        // server's job; see `crate::maintain`.)
        if let Some(spec) = crate::maintain::parse_maintain(&stmt.text)? {
            let call = MechanismCall::new(
                spec.kind,
                &spec.qs,
                &spec.qq,
                &spec.table,
                spec.spec.as_deref(),
            );
            let report = session.run_mechanism(&call, iteration)?;
            out.reports.push((spec.table, report));
            continue;
        }
        if let Ok(parsed) = parse_statement(&stmt.text) {
            let mut scratch = Vec::new();
            if let Some(c) = extract_mechanism_call(&parsed, stmt, &mut scratch) {
                let call =
                    MechanismCall::new(c.kind, &c.qs_text, &c.qq, &c.table, c.spec.as_deref());
                let report = session.run_mechanism(&call, iteration)?;
                out.reports.push((c.table, report));
                continue;
            }
        }
        let outcome = if stmt.on_aux {
            session.aux_db().execute(&stmt.text)?
        } else {
            session.execute(&stmt.text)?
        };
        match outcome {
            ExecOutcome::Rows(rows) => out.tables.push(*rows),
            ExecOutcome::SnapshotDeclared(sid) => out.snapshots.push(sid),
            _ => {}
        }
        // A UDF-form mechanism with dynamic arguments ran inside the
        // statement above; pick up the reports it left behind.
        out.reports.extend(session.take_reports());
    }
    Ok(out)
}

/// A mechanism call's textual arguments, extracted from one statement —
/// what `MAINTAIN QUERY` registration needs (literal arguments only;
/// dynamic arguments return `None`).
pub(crate) struct CallTexts {
    pub(crate) kind: MechanismKind,
    pub(crate) qs: String,
    pub(crate) qq: String,
    pub(crate) table: String,
    pub(crate) spec: Option<String>,
}

/// Extract a literal-argument mechanism call from a statement's text.
pub(crate) fn extract_call_texts(text: &str) -> Option<CallTexts> {
    let parsed = parse_statement(text).ok()?;
    let stmt = ProgramStmt {
        text: text.to_owned(),
        offset: 0,
        on_aux: true,
    };
    let mut scratch = Vec::new();
    let call = extract_mechanism_call(&parsed, &stmt, &mut scratch)?;
    Some(CallTexts {
        kind: call.kind,
        qs: call.qs_text,
        qq: call.qq,
        table: call.table,
        spec: call.spec,
    })
}

/// Span of a statement's first token, for diagnostics with no better
/// anchor.
fn stmt_head_span(stmt: &ProgramStmt) -> Option<Span> {
    tokenize_spanned(&stmt.text)
        .ok()?
        .first()
        .map(|t| t.span.offset(stmt.offset))
}

/// A mechanism call extracted from the UDF form, with everything needed
/// to remap diagnostics back into program coordinates.
struct ExtractedCall {
    kind: MechanismKind,
    qs_text: String,
    qq: String,
    table: String,
    spec: Option<String>,
    /// Span of the mechanism UDF name, program coordinates.
    fn_span: Option<Span>,
    /// The enclosing SELECT projected down to the snap-id argument (the
    /// Qs the loop drives), parsed form.
    qs_select: SelectStmt,
    /// The full enclosing SELECT as written.
    enclosing: SelectStmt,
    /// The projection item holding the mechanism call.
    call_item: SelectItem,
}

fn extract_mechanism_call(
    parsed: &Stmt,
    stmt: &ProgramStmt,
    diags: &mut Vec<Diagnostic>,
) -> Option<ExtractedCall> {
    let Stmt::Select(select) = parsed else {
        return None;
    };
    let (item_idx, name, args) = select.items.iter().enumerate().find_map(|(i, item)| {
        if let SelectItem::Expr {
            expr: Expr::Function { name, args, .. },
            ..
        } = item
        {
            MechanismKind::from_udf_name(name).map(|_| (i, name.clone(), args.clone()))
        } else {
            None
        }
    })?;
    let kind = MechanismKind::from_udf_name(&name)?;
    let fn_span = crate::analyze::resolve::find_word_span(&stmt.text, &name, 0)
        .map(|s| s.offset(stmt.offset));
    let expected = if kind.takes_spec() { 4 } else { 3 };
    if args.len() != expected {
        diags.push(Diagnostic::new(
            Code::MechanismArity,
            format!(
                "{} expects {expected} arguments (snap_id, Qq, T{}), got {}",
                name,
                if kind.takes_spec() { ", spec" } else { "" },
                args.len()
            ),
            SourceKind::Program,
            fn_span,
        ));
        return None;
    }
    let text_arg = |e: &Expr| -> Option<String> {
        if let Expr::Literal(Value::Text(s)) = e {
            Some(s.clone())
        } else {
            None
        }
    };
    // Dynamic (non-literal) arguments can't be analyzed statically.
    let qq = text_arg(&args[1])?;
    let table = text_arg(&args[2])?;
    let spec = if kind.takes_spec() {
        Some(text_arg(&args[3])?)
    } else {
        None
    };
    // The enclosing SELECT, projected down to the snap-id argument, is
    // Qs: it is exactly the query the mechanism loop will drive.
    let mut qs_select = select.clone();
    qs_select.items = vec![SelectItem::Expr {
        expr: args[0].clone(),
        alias: None,
    }];
    let call_item = select.items[item_idx].clone();
    Some(ExtractedCall {
        kind,
        qs_text: render_select(&qs_select),
        qq,
        table,
        spec,
        fn_span,
        qs_select,
        enclosing: select.clone(),
        call_item,
    })
}

fn analyze_call(
    call: &ExtractedCall,
    stmt: &ProgramStmt,
    policy: Option<DeltaPolicy>,
    snap_env: &SchemaEnv,
    aux_env: &mut SchemaEnv,
    out: &mut ProgramAnalysis,
) {
    let analysis = super::analyze_mechanism_call(
        &MechanismCall {
            kind: call.kind,
            qs: &call.qs_text,
            qq: &call.qq,
            table: &call.table,
            spec: call.spec.as_deref(),
        },
        snap_env,
        aux_env,
        policy,
    );
    out.mechanism_count += 1;
    out.qq_unknown_tables
        .extend(analysis.qq_unknown_tables.iter().cloned());
    for d in analysis.diagnostics {
        out.diagnostics.push(remap(d, call, stmt));
    }
    if let Some(explain) = analysis.delta {
        out.delta.push(explain);
    }
    // Thread the result table into the environment so later statements
    // (and later mechanism calls reusing T) see it.
    let columns = analysis
        .result_columns
        .unwrap_or_default()
        .into_iter()
        .map(|c| (c, ColumnType::Any))
        .collect();
    aux_env.add_table(TableSchema::new(&call.table, columns));
}

/// Remap a mechanism-call diagnostic into program coordinates: spans in
/// the Qq/spec argument move inside the corresponding string literal
/// (when it has no `''` escapes); everything else anchors to the
/// mechanism name.
fn remap(mut d: Diagnostic, call: &ExtractedCall, stmt: &ProgramStmt) -> Diagnostic {
    let content = match d.source {
        SourceKind::Qq => Some(call.qq.as_str()),
        SourceKind::Spec => call.spec.as_deref(),
        SourceKind::Qs | SourceKind::Program => None,
    };
    let mapped = content.and_then(|c| literal_span(&stmt.text, c, d.span));
    d.span = mapped.map(|s| s.offset(stmt.offset)).or(call.fn_span);
    // A fix inside an argument literal moves with it — provided the
    // literal has no `''` escapes (positions shift) and the replacement
    // survives re-quoting. Otherwise the fix is dropped: better no edit
    // than a wrong one.
    d.fix = d.fix.take().and_then(|f| {
        let content = content?;
        let lit = exact_literal_span(&stmt.text, content)?;
        if f.span.end > content.len() || f.span.start > f.span.end {
            return None;
        }
        Some(crate::analyze::diag::Fix {
            span: Span::new(lit.start + f.span.start, lit.start + f.span.end).offset(stmt.offset),
            replacement: f.replacement.replace('\'', "''"),
            applicability: f.applicability,
        })
    });
    d.source = SourceKind::Program;
    d
}

/// The span of `content` inside its enclosing single-quoted literal in
/// `text`, only when the raw literal text equals `content` exactly (no
/// `''` escapes — those shift byte positions).
fn exact_literal_span(text: &str, content: &str) -> Option<Span> {
    let tokens = tokenize_spanned(text).ok()?;
    let tok = tokens
        .iter()
        .find(|t| matches!(&t.token, Token::Str(s) if s == content))?;
    let raw = text.get(tok.span.start + 1..tok.span.end.saturating_sub(1))?;
    (raw == content).then(|| Span::new(tok.span.start + 1, tok.span.end.saturating_sub(1)))
}

/// Find the string literal holding `content` in `text` and map `inner`
/// (a span within `content`) into `text` coordinates. Escaped literals
/// (`''`) shift positions, so those map to the whole literal.
fn literal_span(text: &str, content: &str, inner: Option<Span>) -> Option<Span> {
    let tokens = tokenize_spanned(text).ok()?;
    let tok = tokens
        .iter()
        .find(|t| matches!(&t.token, Token::Str(s) if s == content))?;
    let raw = text.get(tok.span.start + 1..tok.span.end.saturating_sub(1))?;
    match inner {
        Some(s) if raw == content => Some(Span::new(
            tok.span.start + 1 + s.start,
            tok.span.start + 1 + s.end,
        )),
        _ => Some(tok.span),
    }
}

/// Checks for a non-mechanism statement: resolve its queries against the
/// environment it runs in, and flag `current_snapshot()` outside the
/// loop body.
fn check_plain_statement(
    parsed: &Stmt,
    stmt: &ProgramStmt,
    env: &SchemaEnv,
    diags: &mut Vec<Diagnostic>,
) {
    let mut local = Vec::new();
    match parsed {
        Stmt::Select(select) | Stmt::CreateTableAs { select, .. } => {
            check_select(select, env, &stmt.text, SourceKind::Program, &mut local);
            rewrite_safety::check_outside_loop(select, &stmt.text, SourceKind::Program, &mut local);
        }
        Stmt::Insert { table, source, .. } => {
            if !env.has_table(table) {
                local.push(Diagnostic::new(
                    Code::UnknownTable,
                    format!("unknown table {table}"),
                    SourceKind::Program,
                    crate::analyze::resolve::find_word_span(&stmt.text, table, 0),
                ));
            }
            if let InsertSource::Select(select) = source {
                check_select(select, env, &stmt.text, SourceKind::Program, &mut local);
            }
        }
        Stmt::Update { table, .. } | Stmt::Delete { table, .. } if !env.has_table(table) => {
            local.push(Diagnostic::new(
                Code::UnknownTable,
                format!("unknown table {table}"),
                SourceKind::Program,
                crate::analyze::resolve::find_word_span(&stmt.text, table, 0),
            ));
        }
        _ => {}
    }
    for mut d in local {
        d.span = d.span.map(|s| s.offset(stmt.offset));
        diags.push(d);
    }
}

/// Fold the statement's DDL effect, preferring an inferred schema for
/// `CREATE TABLE AS`.
fn apply_statement_ddl(parsed: &Stmt, stmt: &ProgramStmt, env: &mut SchemaEnv) {
    if let Stmt::CreateTableAs { name, select, .. } = parsed {
        let mut probe = Vec::new();
        let facts = check_select(select, env, &stmt.text, SourceKind::Program, &mut probe);
        let columns = facts
            .output
            .map(|cols| cols.into_iter().map(|c| (c.name, c.ty)).collect())
            .unwrap_or_default();
        env.add_table(TableSchema::new(name, columns));
        return;
    }
    env.apply_ddl(parsed);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    const PROGRAM: &str = "\
CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT);
INSERT INTO LoggedIn VALUES ('UserA', '09:00');
COMMIT WITH SNAPSHOT;
SELECT CollateData(snap_id, 'SELECT DISTINCT l_userid FROM LoggedIn', 'Found') FROM SnapIds;
--@aux
SELECT * FROM Found;
";

    fn analyze(src: &str) -> ProgramAnalysis {
        let program = parse_program(src).unwrap();
        analyze_program(&program, &SchemaEnv::new(), &SchemaEnv::aux_default())
    }

    fn codes(a: &ProgramAnalysis) -> Vec<Code> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program() {
        let a = analyze(PROGRAM);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.mechanism_count, 1);
    }

    #[test]
    fn statement_splitting_and_routing() {
        let program = parse_program(PROGRAM).unwrap();
        assert_eq!(program.statements.len(), 5);
        assert!(!program.statements[0].on_aux);
        assert!(program.statements[3].on_aux, "mechanism call auto-routes");
        assert!(program.statements[4].on_aux, "--@aux directive");
        assert!(program.policy.is_none());
    }

    #[test]
    fn policy_directive() {
        let src = "--@policy forced\n\
                   CREATE TABLE t (v INTEGER);\n\
                   COMMIT WITH SNAPSHOT;\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t, t t2', 'r') FROM SnapIds;";
        let program = parse_program(src).unwrap();
        assert_eq!(program.policy, Some(DeltaPolicy::Forced));
        let a = analyze_program(&program, &SchemaEnv::new(), &SchemaEnv::aux_default());
        assert!(
            codes(&a).contains(&Code::ForcedDeltaIneligibleShape),
            "{:?}",
            a.diagnostics
        );
        assert_eq!(a.delta.len(), 1);
    }

    #[test]
    fn qq_spans_remap_into_program() {
        let src = "CREATE TABLE t (v INTEGER);\n\
                   SELECT CollateData(snap_id, 'SELECT bogus FROM t', 'r') FROM SnapIds;";
        let a = analyze(src);
        // The unread result table rides along as RQL310.
        assert_eq!(codes(&a), vec![Code::UnknownColumn, Code::DeadResultTable]);
        let span = a.diagnostics[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "bogus");
    }

    #[test]
    fn mechanism_arity() {
        let src = "SELECT CollateData(snap_id, 'SELECT 1') FROM SnapIds;";
        let a = analyze(src);
        assert_eq!(codes(&a), vec![Code::MechanismArity]);
    }

    #[test]
    fn current_snapshot_outside_loop() {
        let src = "CREATE TABLE t (v INTEGER);\nSELECT current_snapshot() FROM t;";
        let a = analyze(src);
        assert_eq!(codes(&a), vec![Code::CurrentSnapshotOutsideLoop]);
        let span = a.diagnostics[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "current_snapshot");
    }

    #[test]
    fn result_table_threads_through_env() {
        // Second mechanism call reuses T → RQL007; the --@aux query of the
        // result table resolves.
        let src = "CREATE TABLE t (v INTEGER);\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'r') FROM SnapIds;\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'r') FROM SnapIds;\n\
                   --@aux\n\
                   SELECT v FROM r;";
        let a = analyze(src);
        assert_eq!(codes(&a), vec![Code::ResultTableExists]);
    }

    #[test]
    fn dead_result_table_has_machine_applicable_fix() {
        let src = "CREATE TABLE t (v INTEGER);\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'r') FROM SnapIds;\n";
        let a = analyze(src);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::DeadResultTable)
            .unwrap();
        let fix = d.fix.as_ref().unwrap();
        assert_eq!(fix.applicability, Applicability::MachineApplicable);
        // Applying the fix deletes the whole statement including `;`.
        let edited = format!("{}{}", &src[..fix.span.start], &src[fix.span.end..]);
        assert!(!edited.contains("CollateData"), "{edited}");
    }

    #[test]
    fn use_before_define_reported_with_reorder_fix() {
        let src = "CREATE TABLE t (v INTEGER);\n\
                   --@aux\n\
                   SELECT v FROM r;\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'r') FROM SnapIds;\n\
                   --@aux\n\
                   SELECT v FROM r;\n";
        let a = analyze(src);
        assert!(
            codes(&a).contains(&Code::UseBeforeDefine),
            "{:?}",
            a.diagnostics
        );
        assert!(
            codes(&a).contains(&Code::UnknownTable),
            "RQL001 rides along"
        );
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::UseBeforeDefine)
            .unwrap();
        assert!(d.span.is_some());
        let fix = d.fix.as_ref().unwrap();
        assert_eq!(fix.applicability, Applicability::MaybeIncorrect);
        assert!(
            fix.replacement.contains("CollateData"),
            "{}",
            fix.replacement
        );
    }

    #[test]
    fn snapshot_set_mismatch_under_policy() {
        let src = "--@policy auto\n\
                   CREATE TABLE t (v INTEGER);\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'a') FROM SnapIds;\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'b') FROM SnapIds WHERE snap_id > 2;\n\
                   --@aux\n\
                   SELECT v FROM a;\n\
                   --@aux\n\
                   SELECT v FROM b;\n";
        let a = analyze(src);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SnapshotSetMismatch)
            .unwrap();
        let fix = d.fix.as_ref().unwrap();
        assert_eq!(fix.applicability, Applicability::MaybeIncorrect);
        assert!(
            !fix.replacement.to_lowercase().contains("where"),
            "fix rebuilds on the earlier (unfiltered) Qs: {}",
            fix.replacement
        );
    }

    #[test]
    fn redundant_recompute_fix_copies_table() {
        let src = "CREATE TABLE t (v INTEGER);\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'a') FROM SnapIds;\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'b') FROM SnapIds;\n\
                   --@aux\n\
                   SELECT v FROM a;\n\
                   --@aux\n\
                   SELECT v FROM b;\n";
        let a = analyze(src);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::RedundantRecompute)
            .unwrap();
        let fix = d.fix.as_ref().unwrap();
        assert_eq!(fix.applicability, Applicability::MachineApplicable);
        assert!(
            fix.replacement
                .contains("CREATE TABLE b AS SELECT * FROM a"),
            "{}",
            fix.replacement
        );
    }

    #[test]
    fn auto_fallback_gets_policy_fix() {
        let src = "--@policy auto\n\
                   CREATE TABLE t (v INTEGER);\n\
                   SELECT CollateData(snap_id, 'SELECT a.v FROM t a, t b', 'r') FROM SnapIds;\n\
                   --@aux\n\
                   SELECT * FROM r;\n";
        let a = analyze(src);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::AutoDeltaFallback)
            .unwrap();
        let fix = d.fix.as_ref().unwrap();
        assert_eq!(fix.applicability, Applicability::MachineApplicable);
        assert_eq!(fix.replacement, "--@policy off");
        assert_eq!(&src[fix.span.start..fix.span.end], "--@policy auto");
    }

    #[test]
    fn prune_identity_where_fix_remaps_into_literal() {
        let src = "CREATE TABLE t (v INTEGER);\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t WHERE v + 0 = 5', 'r') FROM SnapIds;\n\
                   --@aux\n\
                   SELECT * FROM r;\n";
        let a = analyze(src);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::PruneIneligibleWhere)
            .unwrap();
        let fix = d.fix.as_ref().unwrap();
        assert_eq!(fix.applicability, Applicability::MachineApplicable);
        // The fix replaces the Qq literal's content with the rewritten query.
        assert_eq!(
            &src[fix.span.start..fix.span.end],
            "SELECT v FROM t WHERE v + 0 = 5"
        );
        assert!(
            fix.replacement.contains("WHERE (v = 5)"),
            "{}",
            fix.replacement
        );
    }

    #[test]
    fn dynamic_mechanism_args_suppress_liveness_passes() {
        // The second call's Qq is a column, not a literal: the def-use
        // graph cannot see what it defines, so RQL310 must not fire.
        let src = "CREATE TABLE t (v INTEGER, q TEXT);\n\
                   SELECT CollateData(snap_id, 'SELECT v FROM t', 'r') FROM SnapIds;\n\
                   --@aux\n\
                   SELECT CollateData(snap_id, name, 'x') FROM SnapIds;\n";
        let a = analyze(src);
        assert!(
            !codes(&a).contains(&Code::DeadResultTable),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn lex_error_reported() {
        let err = parse_program("SELECT 'oops").unwrap_err();
        assert_eq!(err.code, Code::ParseError);
        assert!(err.span.is_some());
    }

    #[test]
    fn parse_error_spans() {
        let src = "CREATE TABLE t (v INTEGER);\nSELECT FROM t;";
        let a = analyze(src);
        assert_eq!(codes(&a), vec![Code::ParseError]);
        let span = a.diagnostics[0].span.unwrap();
        assert!(span.start >= 28, "span {span:?} should be in stmt 2");
    }
}
