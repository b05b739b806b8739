//! The four folds of Qq's per-snapshot output into the result table `T`
//! (paper §2–§3), one per mechanism, plus the sort-merge ablation of
//! `AggregateDataInTable`.
//!
//! A fold sees one snapshot's Qq rows and never where they came from:
//! snapshot reducibility makes every source (sequential, delta chain,
//! parallel, memo) produce the rows Qq gives on that snapshot, so one
//! fold serves them all and the result table is byte-identical across
//! sources. `Fold::new` is the only place a [`MechanismKind`] picks its
//! fold.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use rql_sqlengine::{Database, QueryResult, Result, Row, SqlError, TableWriter, Value};

use crate::aggregate::{parse_col_func_pairs, AggOp, AggState};
use crate::analyze::MechanismKind;
use crate::mechanism::{Table, Target};

/// Start-of-lifetime column added by `CollateDataIntoIntervals`.
pub const START_SNAPSHOT_COL: &str = "start_snapshot";
/// End-of-lifetime column added by `CollateDataIntoIntervals`.
pub const END_SNAPSHOT_COL: &str = "end_snapshot";

/// One row-level change a fold made to `T` — what the standing-query
/// maintainer turns into result-delta frames.
pub(crate) enum FoldEffect {
    /// A fresh row was inserted.
    Inserted(Row),
    /// A row was rewritten.
    Updated {
        /// The row before the fold.
        old: Row,
        /// The row after the fold.
        new: Row,
    },
    /// The aggregate did not change; nothing was written.
    Unchanged,
}

/// Row-level effects, recorded only when a caller asked for them.
#[derive(Default)]
pub(crate) struct Effects(pub(crate) Option<Vec<FoldEffect>>);

impl Effects {
    fn note(&mut self, effect: impl FnOnce() -> FoldEffect) {
        if let Some(effects) = &mut self.0 {
            effects.push(effect());
        }
    }
}

/// A mechanism's fold state, persistent across the snapshots of one run
/// (and, for standing queries, across commits).
pub(crate) enum Fold {
    /// `CollateData`: blind inserts.
    Collate,
    /// `AggregateDataInVariable`: a running variable, written to `T` at
    /// the end of a whole computation — or, in the UDF step form, kept
    /// as `T`'s single row (with `(sum, count)` companions for AVG).
    AggVar {
        func: AggOp,
        state: AggState,
        column: Option<String>,
        step: bool,
        /// `T`'s row as last written by [`Fold::finish`].
        row: Option<Row>,
    },
    /// `AggregateDataInTable` (and its sort-merge ablation).
    AggTable(AggTableFold),
    /// `CollateDataIntoIntervals`; `prev` is the snapshot folded last.
    Intervals { prev: Option<u64> },
}

impl Fold {
    /// The fold for `kind` with its spec argument.
    pub(crate) fn new(kind: MechanismKind, spec: Option<&str>, target: &Target) -> Result<Fold> {
        let spec = spec.unwrap_or_default();
        Ok(match kind {
            MechanismKind::Collate => Fold::Collate,
            MechanismKind::AggVar => {
                let func = AggOp::parse(spec)?;
                Fold::AggVar {
                    func,
                    state: func.init(),
                    column: None,
                    step: matches!(target, Target::Step { .. }),
                    row: None,
                }
            }
            MechanismKind::AggTable => {
                Fold::AggTable(AggTableFold::new(parse_col_func_pairs(spec)?, false))
            }
            MechanismKind::Intervals => Fold::Intervals {
                prev: match target {
                    Target::Step { prev } => *prev,
                    Target::Fresh => None,
                },
            },
        })
    }

    /// Fold snapshot `sid`'s Qq output into `T`, creating `T` on first
    /// use; returns the `(inserts, updates)` written.
    pub(crate) fn fold(
        &mut self,
        aux: &Database,
        t: &mut Table,
        sid: u64,
        result: &QueryResult,
    ) -> Result<(u64, u64)> {
        match self {
            Fold::Collate => {
                if !t.exists {
                    t.create(aux, &result.columns, &[])?;
                }
                t.write(aux, |w, fx| {
                    for row in &result.rows {
                        fx.note(|| FoldEffect::Inserted(row.clone()));
                        w.insert(row.clone())?;
                    }
                    Ok((w.inserted(), w.updated()))
                })
            }
            Fold::AggVar {
                func,
                state,
                column,
                step,
                ..
            } => {
                let v = single_value(result)?;
                let column = column.get_or_insert_with(|| result.columns[0].clone());
                if !*step {
                    if let Some(v) = v {
                        func.absorb(state, v);
                    }
                    return Ok((0, 0));
                }
                let companion = func.needs_companions().then_some(1);
                if !t.exists {
                    let mut columns = vec![column.clone()];
                    let mut row = vec![func.finish(&func.init())];
                    if companion.is_some() {
                        columns
                            .extend([format!("{column}__avg_sum"), format!("{column}__avg_cnt")]);
                        row.extend([Value::Real(0.0), Value::Integer(0)]);
                    }
                    if let Some(v) = v {
                        combine_cell(&mut row, 0, *func, companion, v);
                    }
                    t.create(aux, &columns, &[])?;
                    return t.write(aux, |w, _| w.insert(row).map(|_| (1, 0)));
                }
                let Some(v) = v else { return Ok((0, 0)) };
                let name = &t.name;
                aux.with_table_writer(name, |w| {
                    // T has exactly one row: read, combine, write back.
                    let Some((rid, old)) = w.probe_all()?.into_iter().next() else {
                        return Err(SqlError::Invalid(format!(
                            "result table {name} unexpectedly empty"
                        )));
                    };
                    let mut new = old.clone();
                    combine_cell(&mut new, 0, *func, companion, v);
                    w.update(rid, &old, new)?;
                    Ok((0, 1))
                })
            }
            Fold::AggTable(fold) => fold.apply(aux, t, result),
            Fold::Intervals { prev } => {
                let arity = result.columns.len();
                let fresh = !t.exists;
                if fresh {
                    let mut columns = result.columns.clone();
                    columns.extend([START_SNAPSHOT_COL.to_owned(), END_SNAPSHOT_COL.to_owned()]);
                    t.create(aux, &columns, &result.columns)?;
                }
                let last = prev.replace(sid);
                let sid = Value::Integer(sid as i64);
                t.write(aux, |w, fx| {
                    for record in &result.rows {
                        // A record extends the lifetime row that ended
                        // exactly at the previous iteration's snapshot.
                        let extend = match last {
                            Some(p) if !fresh => w
                                .probe(0, record)?
                                .into_iter()
                                .find(|(_, row)| row[arity + 1].as_i64() == Some(p as i64)),
                            _ => None,
                        };
                        match extend {
                            Some((rid, old)) => {
                                let mut new = old.clone();
                                new[arity + 1] = sid.clone();
                                fx.note(|| FoldEffect::Updated {
                                    old: old.clone(),
                                    new: new.clone(),
                                });
                                w.update(rid, &old, new)?;
                            }
                            None => {
                                let mut row = record.clone();
                                row.extend([sid.clone(), sid.clone()]);
                                fx.note(|| FoldEffect::Inserted(row.clone()));
                                w.insert(row)?;
                            }
                        }
                    }
                    Ok((w.inserted(), w.updated()))
                })
            }
        }
    }

    /// Whether the fold writes `T` once more after the last snapshot
    /// (whole-computation `AggregateDataInVariable`).
    pub(crate) fn finishes(&self) -> bool {
        matches!(self, Fold::AggVar { step: false, .. })
    }

    /// Write the running variable into `T` as its single row, replacing
    /// the table a previous pass wrote (the standing maintainer finishes
    /// once per commit), so `T` always equals a fresh batch run's.
    pub(crate) fn finish(&mut self, aux: &Database, t: &mut Table) -> Result<()> {
        let Fold::AggVar {
            func,
            state,
            column,
            row,
            ..
        } = self
        else {
            return Ok(());
        };
        if t.exists {
            aux.execute(&format!("DROP TABLE {}", t.name))?;
            t.exists = false;
        }
        let column = column.clone().unwrap_or_else(|| "value".to_owned());
        t.create(aux, &[column], &[])?;
        let new = vec![func.finish(state)];
        t.write(aux, |w, fx| {
            fx.note(|| match row.clone() {
                Some(old) => FoldEffect::Updated {
                    old,
                    new: new.clone(),
                },
                None => FoldEffect::Inserted(new.clone()),
            });
            w.insert(new.clone())
        })?;
        *row = Some(new);
        Ok(())
    }

    /// The snapshot an Intervals fold folded last (threaded between UDF
    /// step invocations).
    pub(crate) fn prev_sid(&self) -> Option<u64> {
        match self {
            Fold::Intervals { prev } => *prev,
            _ => None,
        }
    }

    /// AggTable groups skipped so far by the write-skipping fold.
    pub(crate) fn groups_skipped(&self) -> u64 {
        match self {
            Fold::AggTable(fold) => fold.groups_skipped,
            _ => 0,
        }
    }
}

/// Extract the single value of an `AggregateDataInVariable` Qq result
/// (`None` when the snapshot contributed nothing).
fn single_value(result: &QueryResult) -> Result<Option<&Value>> {
    if result.columns.len() != 1 {
        return Err(SqlError::Invalid(format!(
            "AggregateDataInVariable expects Qq to return one column, got {}",
            result.columns.len()
        )));
    }
    match result.rows.len() {
        0 => Ok(None),
        1 => Ok(Some(&result.rows[0][0])),
        n => Err(SqlError::Invalid(format!(
            "AggregateDataInVariable expects Qq to return at most one row, got {n}"
        ))),
    }
}

/// Combine `incoming` into a stored row's aggregate cell at `pos`. AVG
/// cannot combine value-to-value: it keeps `(sum, count)` companions at
/// `base`, `base + 1` and derives the cell from them.
fn combine_cell(row: &mut Row, pos: usize, op: AggOp, companion: Option<usize>, incoming: &Value) {
    let Some(base) = companion else {
        row[pos] = op.combine(&row[pos], incoming);
        return;
    };
    let mut sum = row[base].as_f64().unwrap_or(0.0);
    let mut cnt = row[base + 1].as_i64().unwrap_or(0);
    if let Some(x) = incoming.as_f64() {
        sum += x;
        cnt += 1;
    }
    row[pos] = if cnt == 0 {
        Value::Null
    } else {
        Value::Real(sum / cnt as f64)
    };
    row[base] = Value::Real(sum);
    row[base + 1] = Value::Integer(cnt);
}

// ======================================================================
// AggregateDataInTable
// ======================================================================

/// Internal layout of an `AggregateDataInTable` result table.
struct AggTableLayout {
    /// Positions of grouping columns within the Qq output.
    group_positions: Vec<usize>,
    /// `(qq_position, op, companion_base)` per aggregated column;
    /// `companion_base` indexes the `(sum, count)` pair for AVG columns.
    agg_columns: Vec<(usize, AggOp, Option<usize>)>,
    /// All result-table column names (Qq columns + AVG companions).
    table_columns: Vec<String>,
}

impl AggTableLayout {
    fn new(qq_columns: &[String], pairs: &[(String, AggOp)]) -> Result<AggTableLayout> {
        let mut agg_columns = Vec::new();
        let mut table_columns: Vec<String> = qq_columns.to_vec();
        for (col, op) in pairs {
            let pos = qq_columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(col))
                .ok_or_else(|| {
                    SqlError::Unknown(format!("aggregated column {col} not in Qq output"))
                })?;
            let companion = op.needs_companions().then(|| {
                table_columns.extend([format!("{col}__avg_sum"), format!("{col}__avg_cnt")]);
                table_columns.len() - 2
            });
            agg_columns.push((pos, *op, companion));
        }
        let group_positions: Vec<usize> = (0..qq_columns.len())
            .filter(|i| !agg_columns.iter().any(|(p, _, _)| p == i))
            .collect();
        if group_positions.is_empty() {
            return Err(SqlError::Invalid(
                "every Qq column is aggregated; use AggregateDataInVariable instead".into(),
            ));
        }
        Ok(AggTableLayout {
            group_positions,
            agg_columns,
            table_columns,
        })
    }

    fn key(&self, record: &Row) -> GroupKey {
        GroupKey(
            self.group_positions
                .iter()
                .map(|&p| record[p].clone())
                .collect(),
        )
    }

    /// Result-table row for a record's first appearance.
    fn fresh_row(&self, record: &Row) -> Row {
        let mut row = Vec::with_capacity(self.table_columns.len());
        row.extend(record.iter().cloned());
        for (pos, _, companion) in &self.agg_columns {
            if companion.is_some() {
                let x = record[*pos].as_f64().unwrap_or(0.0);
                row.extend([
                    Value::Real(x),
                    Value::Integer(i64::from(!record[*pos].is_null())),
                ]);
            }
        }
        row
    }

    /// The stored row `old` with `record`'s contribution combined in —
    /// the update arithmetic of both the index-probe fold and the
    /// sort-merge ablation.
    fn combine(&self, old: &Row, record: &Row) -> Row {
        let mut new = old.clone();
        for (pos, op, companion) in &self.agg_columns {
            combine_cell(&mut new, *pos, *op, *companion, &record[*pos]);
        }
        new
    }

    /// Fold one record into the result table: probe on the grouping
    /// columns, then update the hit or insert fresh (paper §3).
    fn fold(&self, w: &mut TableWriter, record: &Row) -> Result<FoldEffect> {
        let mut hits = w.probe(0, &self.key(record).0)?;
        match hits.pop() {
            None => {
                let fresh = self.fresh_row(record);
                w.insert(fresh.clone())?;
                Ok(FoldEffect::Inserted(fresh))
            }
            Some((rid, old)) if hits.is_empty() => {
                let new = self.combine(&old, record);
                // Skip the write when the aggregate did not change (MAX
                // rarely changes; SUM changes on every contribution —
                // the asymmetry of Figure 13's hot iterations).
                if new == old {
                    return Ok(FoldEffect::Unchanged);
                }
                w.update(rid, &old, new.clone())?;
                Ok(FoldEffect::Updated { old, new })
            }
            Some(_) => Err(SqlError::Invalid(format!(
                "aggregation ill-defined: {} result rows share one grouping key \
                 (Qq must be unique on its grouping columns)",
                hits.len() + 1
            ))),
        }
    }
}

/// Grouping key under result-table probe equivalence: two keys are equal
/// iff [`TableWriter::probe`] would land them on the same result row
/// (`total_cmp == Equal`, so `2` ≡ `2.0` and NULL ≡ NULL).
struct GroupKey(Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for GroupKey {}
impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| a.total_cmp(b))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or_else(|| self.0.len().cmp(&other.0.len()))
    }
}

#[derive(Default)]
struct GroupState {
    /// The group's record sublist, in Qq output order.
    records: Vec<Row>,
    /// Whether this group's last fold pass provably wrote nothing.
    noop: bool,
    /// Whether this pass's fold wrote (insert or update).
    wrote: bool,
}

/// Write-skipping `AggregateDataInTable` fold.
///
/// Byte-identity argument: the result table's bytes depend only on the
/// *write* sequence against it (probes are read-only, and
/// `heap.update` = delete+insert relocates on every write). A group
/// whose record sublist is unchanged since the previous pass AND whose
/// previous pass wrote nothing would fold to the same no-op again — the
/// fold is deterministic in (stored row, records), and no other group's
/// writes touch its stored row. Skipping exactly those groups therefore
/// preserves the per-record probe fold's write sequence byte-for-byte
/// while eliminating the probes for the stable majority (MAX groups in
/// Figure 13's hot iterations). Everything else replays
/// [`AggTableLayout::fold`] per record in Qq output order.
pub(crate) struct AggTableFold {
    pairs: Vec<(String, AggOp)>,
    layout: Option<AggTableLayout>,
    /// The paper's costlier alternative (§3): merge each iteration's
    /// key-sorted records against a full key-ordered scan of `T`.
    sort_merge: bool,
    /// Next pass blind-inserts (the table was just created; the paper's
    /// first iteration over a fresh table skips the probes).
    blind_next: bool,
    /// The previous pass's groups, and where each key's group sits.
    prev_index: BTreeMap<GroupKey, usize>,
    prev_groups: Vec<GroupState>,
    /// Groups skipped without even a probe, across all passes.
    groups_skipped: u64,
}

impl AggTableFold {
    pub(crate) fn new(pairs: Vec<(String, AggOp)>, sort_merge: bool) -> Self {
        AggTableFold {
            pairs,
            layout: None,
            sort_merge,
            blind_next: false,
            prev_index: BTreeMap::new(),
            prev_groups: Vec::new(),
            groups_skipped: 0,
        }
    }

    fn apply(&mut self, aux: &Database, t: &mut Table, result: &QueryResult) -> Result<(u64, u64)> {
        if self.layout.is_none() {
            let l = AggTableLayout::new(&result.columns, &self.pairs)?;
            if !t.exists {
                // Paper §3: "we also create an index on Result using as
                // key the values in non-aggregating columns".
                let key: Vec<String> = if self.sort_merge {
                    Vec::new()
                } else {
                    l.group_positions
                        .iter()
                        .map(|&p| result.columns[p].clone())
                        .collect()
                };
                t.create(aux, &l.table_columns, &key)?;
                self.blind_next = !self.sort_merge;
            }
            self.layout = Some(l);
        }
        let layout = self.layout.as_ref().expect("layout initialized");
        if self.sort_merge {
            return t.write(aux, |w, _| sort_merge(layout, w, result));
        }
        let blind = std::mem::take(&mut self.blind_next);

        // Group this iteration's records under probe equivalence and
        // decide skips against the previous pass.
        let mut index: BTreeMap<GroupKey, usize> = BTreeMap::new();
        let mut groups: Vec<GroupState> = Vec::new();
        let mut member = Vec::with_capacity(result.rows.len());
        for record in &result.rows {
            let g = *index.entry(layout.key(record)).or_insert_with(|| {
                groups.push(GroupState::default());
                groups.len() - 1
            });
            groups[g].records.push(record.clone());
            member.push(g);
        }
        if !blind {
            for (key, &g) in &index {
                let Some(&p) = self.prev_index.get(key) else {
                    continue;
                };
                let prev = &self.prev_groups[p];
                if prev.noop && prev.records == groups[g].records {
                    groups[g].noop = true;
                    self.groups_skipped += 1;
                }
            }
        }
        let counts = t.write(aux, |w, fx| {
            for (record, &g) in result.rows.iter().zip(&member) {
                if blind {
                    // First pass over a fresh table inserts blindly (the
                    // Qq output is unique on the grouping columns).
                    let fresh = layout.fresh_row(record);
                    fx.note(|| FoldEffect::Inserted(fresh.clone()));
                    w.insert(fresh)?;
                    continue;
                }
                if groups[g].noop {
                    continue;
                }
                match layout.fold(w, record)? {
                    FoldEffect::Unchanged => {}
                    effect => {
                        groups[g].wrote = true;
                        fx.note(|| effect);
                    }
                }
            }
            Ok((w.inserted(), w.updated()))
        })?;
        for state in &mut groups {
            state.noop = !blind && (state.noop || !state.wrote);
            state.wrote = false;
        }
        self.prev_index = index;
        self.prev_groups = groups;
        Ok(counts)
    }
}

/// Sort-merge pass: sort this iteration's records by grouping key and
/// merge them against a full key-ordered scan of the result table. The
/// merge touches every result row every iteration, which is what makes
/// it lose to the index-probe plan whenever the result table outgrows
/// the per-snapshot output.
fn sort_merge(
    layout: &AggTableLayout,
    w: &mut TableWriter,
    result: &QueryResult,
) -> Result<(u64, u64)> {
    let mut records: Vec<&Row> = result.rows.iter().collect();
    records.sort_by_cached_key(|r| layout.key(r));
    let mut existing = w.probe_all()?;
    existing.sort_by_cached_key(|(_, r)| layout.key(r));
    let mut e = existing.iter().peekable();
    for record in records {
        let key = layout.key(record);
        // Advance the merge cursor to the record's key.
        while e.next_if(|(_, row)| layout.key(row) < key).is_some() {}
        match e.next_if(|(_, row)| layout.key(row) == key) {
            Some((rid, old)) => {
                let new = layout.combine(old, record);
                if new != *old {
                    w.update(*rid, old, new)?;
                }
            }
            None => {
                w.insert(layout.fresh_row(record))?;
            }
        }
    }
    Ok((w.inserted(), w.updated()))
}
