//! Seeded program and commit streams.
//!
//! The seed drives only *which* programs and commits are sent: Qs window
//! start, length and stride, the Qq literal, the mechanism, and the size
//! of each refresh pair. The TPC-H rows themselves are fixed by the scale
//! factor (`rql_tpch` derives every row from its key).

use std::ops::Range;

use rql::Value;
use rql_tpch::text::date_from_day;
use rql_tpch::Tpch;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent generator for sub-stream `stream` of this one's
    /// seed (one per connection, one for commits).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform choice from a non-empty slice.
    pub fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.next_u64() as usize % options.len()]
    }
}

/// The paper's four mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mech {
    /// `CollateData`.
    Collate,
    /// `AggregateDataInVariable`.
    AggVar,
    /// `AggregateDataInTable`.
    AggTable,
    /// `CollateDataIntoIntervals`.
    Intervals,
}

impl Mech {
    /// All four, in metric order.
    pub const ALL: [Mech; 4] = [Mech::Collate, Mech::AggVar, Mech::AggTable, Mech::Intervals];

    /// Metric-name stem (`collate_p50_ms`, …).
    pub fn name(self) -> &'static str {
        match self {
            Mech::Collate => "collate",
            Mech::AggVar => "aggvar",
            Mech::AggTable => "aggtable",
            Mech::Intervals => "intervals",
        }
    }

    /// The RQL UDF-form mechanism name.
    pub fn udf(self) -> &'static str {
        match self {
            Mech::Collate => "CollateData",
            Mech::AggVar => "AggregateDataInVariable",
            Mech::AggTable => "AggregateDataInTable",
            Mech::Intervals => "CollateDataIntoIntervals",
        }
    }
}

/// Literal values per Qq template: the literal picks one of these, so
/// the memo sees a repeat only when both literal and snapshot repeat.
pub const LITERALS: u64 = 1000;

/// The store's order-key layout, used to turn a literal into a date that
/// selects a steady share of the orders alive in the window's snapshots
/// (refresh functions delete the oldest keys and insert new ones, and
/// dates rise with keys).
#[derive(Debug, Clone)]
pub struct Shape {
    /// Orders alive in every snapshot.
    pub orders: i64,
    /// Orders churned before each history snapshot.
    pub per_snapshot: i64,
    /// Snapshots declared by the history build.
    pub history: u64,
    /// Oldest live order key of each snapshot committed after the
    /// history, in snapshot order (the writer appends as it commits).
    pub later: Vec<i64>,
}

impl Shape {
    /// Shape of a history of `snapshots` snapshots at `tpch`'s scale.
    pub fn new(tpch: &Tpch, per_snapshot: i64, snapshots: u64) -> Shape {
        Shape {
            orders: tpch.orders_count(),
            per_snapshot,
            history: snapshots,
            later: Vec::new(),
        }
    }

    /// Oldest live order key in snapshot `sid`. Commit sizes vary, so a
    /// snapshot past the history is looked up in `later`; one not yet
    /// recorded there (only in tests) is placed by the mean commit size.
    fn first_key(&self, sid: u64) -> i64 {
        let hist = sid.min(self.history) as i64;
        let key = 1 + hist * self.per_snapshot;
        match sid.checked_sub(self.history + 1) {
            None => key,
            Some(i) => self.later.get(i as usize).copied().unwrap_or_else(|| {
                let mean = (COMMIT_ORDERS.start + COMMIT_ORDERS.end - 1) / 2;
                key + (i as i64 + 1) * mean
            }),
        }
    }

    /// The `o_orderdate` of order `key` (mirrors `Tpch::order_row`).
    fn day_of(&self, key: i64) -> i64 {
        (key as f64 / self.orders as f64 * 0.66 * 2405.0) as i64
    }

    /// A date below which about `share` of the orders alive at `sid` fall.
    fn date_at(&self, sid: u64, share: f64) -> String {
        let key = self.first_key(sid) + (share * self.orders as f64) as i64;
        date_from_day(self.day_of(key))
    }
}

/// One retrospective program: a mechanism over a Qs window.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// Which mechanism.
    pub mech: Mech,
    /// First snapshot of the window; `None` ends the window at the
    /// latest snapshot known when the program is sent.
    pub start: Option<u64>,
    /// Snapshots in the window.
    pub len: u64,
    /// Stride between them (Table 1's "with step").
    pub step: u64,
    /// Qq literal index in `0..LITERALS`.
    pub literal: u64,
}

impl ProgramSpec {
    /// First snapshot, resolving a latest-anchored window.
    pub fn first(&self, latest: u64) -> u64 {
        self.start
            .unwrap_or_else(|| latest.saturating_sub((self.len - 1) * self.step).max(1))
    }

    /// The Table-1 Qq template for this mechanism with the literal bound.
    pub fn qq(&self, shape: &Shape, latest: u64) -> String {
        let at = |lo: f64, hi: f64| {
            let share = lo + (hi - lo) * self.literal as f64 / LITERALS as f64;
            shape.date_at(self.first(latest), share)
        };
        match self.mech {
            // Qq_collate.
            Mech::Collate => format!(
                "SELECT o_orderkey FROM orders WHERE o_orderdate < '{}'",
                at(0.05, 0.25)
            ),
            // Qq_io, with a price bound carrying the literal. The status
            // stays Table 1's 'O': with a second status value the cost would
            // split into two clusters and its median would jump between them.
            Mech::AggVar => format!(
                "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O' AND o_totalprice > {}",
                850 + self.literal * 450
            ),
            // Qq_agg over the orders older than the literal date.
            Mech::AggTable => format!(
                "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av FROM orders \
                 WHERE o_orderdate < '{}' GROUP BY o_custkey",
                at(0.2, 0.6)
            ),
            // Qq_int over the orders older than the literal date.
            Mech::Intervals => format!(
                "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderdate < '{}'",
                at(0.02, 0.10)
            ),
        }
    }

    /// The mechanism call statement writing into `table`.
    pub fn call(&self, shape: &Shape, latest: u64, table: &str) -> String {
        let first = self.first(latest);
        let last = first + (self.len - 1) * self.step;
        let mut qs = format!("FROM SnapIds WHERE snap_id >= {first} AND snap_id <= {last}");
        if self.step > 1 {
            qs.push_str(&format!(" AND (snap_id - {first}) % {} = 0", self.step));
        }
        let qq = self.qq(shape, latest).replace('\'', "''");
        let spec = match self.mech {
            Mech::AggVar => ", 'sum'",
            Mech::AggTable => ", '(cn,max):(av,min)'",
            Mech::Collate | Mech::Intervals => "",
        };
        format!(
            "SELECT {}(snap_id, '{qq}', '{table}'{spec}) {qs}",
            self.mech.udf()
        )
    }

    /// The whole program: the mechanism call, a read of its result table,
    /// and a drop of that table in the same program, so a failure cannot
    /// leave a table behind for a later program to collide with.
    pub fn program(&self, shape: &Shape, latest: u64, table: &str) -> String {
        format!(
            "{};\n--@aux\nSELECT * FROM {table};\n--@aux\nDROP TABLE {table};\n",
            self.call(shape, latest, table)
        )
    }
}

/// The mechanism mix of every workload: `AggregateDataInVariable` and
/// `CollateData` answer fastest and `AggregateDataInTable` slowest, so
/// with these shares (2, 3, 2, 2 of 9) the 50th percentile falls inside
/// the fast mechanisms' latencies and the 90th inside the slowest's. With
/// equal shares both would sit on a boundary between two mechanisms'
/// ranges, and a small change in the mix would move them across it.
pub const MIX: [Mech; 9] = [
    Mech::AggVar,
    Mech::AggVar,
    Mech::Collate,
    Mech::Collate,
    Mech::Collate,
    Mech::Intervals,
    Mech::Intervals,
    Mech::AggTable,
    Mech::AggTable,
];

/// `history_scan`: a window anywhere in a `snapshots`-long history, so
/// both archived and recent snapshots are read.
pub fn scan_program(rng: &mut Rng, snapshots: u64) -> ProgramSpec {
    let mech = rng.pick(&MIX);
    let len = rng.range(6, 10);
    let step = rng.pick(&[1, 1, 2, 3]);
    let span = (len - 1) * step;
    ProgramSpec {
        mech,
        start: Some(rng.range(1, snapshots - span)),
        len,
        step,
        literal: rng.range(0, LITERALS - 1),
    }
}

/// `ingest_mixed` reader: a window ending at the latest snapshot.
pub fn recent_program(rng: &mut Rng) -> ProgramSpec {
    ProgramSpec {
        mech: rng.pick(&MIX),
        start: None,
        len: rng.range(4, 8),
        step: 1,
        literal: rng.range(0, LITERALS - 1),
    }
}

/// `memo_replay`'s fixed dashboard catalog: one program per entry of
/// [`MIX`], each over 8 snapshots of a `snapshots`-long history. Entries
/// of one mechanism differ only in their window, so their costs match.
/// The seed only orders the requests.
pub fn dashboard_catalog(snapshots: u64) -> Vec<ProgramSpec> {
    MIX.into_iter()
        .enumerate()
        .map(|(i, mech)| ProgramSpec {
            mech,
            start: Some(snapshots - 8 - i as u64 * 3),
            len: 8,
            step: 1,
            literal: LITERALS / 2,
        })
        .collect()
}

/// One program per mechanism over the last snapshots of the history,
/// sent untimed on every reading connection before the window.
pub fn warmup_programs(snapshots: u64) -> Vec<ProgramSpec> {
    Mech::ALL
        .into_iter()
        .map(|mech| ProgramSpec {
            mech,
            start: Some(snapshots - 1),
            len: 2,
            step: 1,
            literal: LITERALS / 2,
        })
        .collect()
}

/// Orders per `ingest_mixed` refresh pair.
pub const COMMIT_ORDERS: Range<i64> = 20..41;

/// One writer commit: a refresh pair of `orders` orders.
pub fn commit_orders(rng: &mut Rng) -> i64 {
    rng.range(COMMIT_ORDERS.start as u64, COMMIT_ORDERS.end as u64 - 1) as i64
}

/// A SQL literal for one value.
fn literal(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Integer(i) => out.push_str(&i.to_string()),
        Value::Real(r) => out.push_str(&format!("{r:?}")),
        Value::Text(s) => {
            out.push('\'');
            out.push_str(&s.replace('\'', "''"));
            out.push('\'');
        }
    }
}

/// Bytes of row values as the user supplied them (integers and reals 8,
/// text its length, NULL 1) — the denominator of bytes stored per user
/// byte.
pub fn value_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Integer(_) | Value::Real(_) => 8,
            Value::Text(s) => s.len() as u64,
        })
        .sum()
}

fn insert_sql(table: &str, rows: &[Vec<Value>]) -> String {
    let mut sql = format!("INSERT INTO {table} VALUES ");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push('(');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                sql.push_str(", ");
            }
            literal(v, &mut sql);
        }
        sql.push(')');
    }
    sql
}

/// A TPC-H refresh pair as SQL statements: RF2 deletes the orders (and
/// lineitems) keyed `delete`, RF1 inserts the orders keyed `insert` with
/// their lineitems, and the transaction ends in `COMMIT WITH SNAPSHOT`.
/// Returns the statements and the user bytes they insert.
pub fn refresh_statements(
    tpch: &Tpch,
    delete: Range<i64>,
    insert: Range<i64>,
) -> (Vec<String>, u64) {
    let orders: Vec<Vec<Value>> = insert.clone().map(|k| tpch.order_row(k)).collect();
    let lines: Vec<Vec<Value>> = insert.flat_map(|k| tpch.lineitem_rows(k)).collect();
    let bytes = orders.iter().chain(&lines).map(|r| value_bytes(r)).sum();
    let (lo, hi) = (delete.start, delete.end);
    let statements = vec![
        "BEGIN".to_owned(),
        format!("DELETE FROM lineitem WHERE l_orderkey >= {lo} AND l_orderkey < {hi}"),
        format!("DELETE FROM orders WHERE o_orderkey >= {lo} AND o_orderkey < {hi}"),
        insert_sql("orders", &orders),
        insert_sql("lineitem", &lines),
        "COMMIT WITH SNAPSHOT".to_owned(),
    ];
    (statements, bytes)
}

/// Statements joined into one wire program.
pub fn join_statements(statements: &[String]) -> String {
    let mut out = String::new();
    for s in statements {
        out.push_str(s);
        out.push_str(";\n");
    }
    out
}
