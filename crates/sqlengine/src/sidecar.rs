//! Pruning sidecars: per-page zone maps + bloom filters for Qq scans.
//!
//! A sidecar is a compact, self-describing summary of one heap page:
//! per-column min/max "zone maps" (split into exact integer bounds and
//! finite-real bounds, because the engine compares Integer↔Integer
//! exactly but Integer↔Real through an `f64` cast) plus one small bloom
//! filter over the text values of the covered columns. Sidecars are
//! built at commit time from the exact page images about to be
//! published, versioned alongside the COW pre-state in `retro`, and
//! consulted by scans *before* fetching a page body: when the zone map
//! or bloom refutes the query's conjunctive predicate, the page (and
//! its disk read) is skipped entirely.
//!
//! Safety model: a sidecar can only ever cause a page to be *skipped*,
//! so the refutation rules must be sound against the engine's actual
//! comparison semantics ([`crate::value::Value::total_cmp`]):
//!
//! * `NULL < numbers < text` is a total order across storage classes, so
//!   `col > 'a'`-style text comparisons are satisfiable by *any* text
//!   value and `col > 5` is satisfiable by any text value — the flags
//!   byte records which classes appear on the page.
//! * `cmp_f64` treats NaN as *equal to everything* (it uses
//!   `partial_cmp().unwrap_or(Equal)`), so a page containing NaN
//!   satisfies every numeric `=`, `<=`, `>=` — a dedicated `HAS_NAN`
//!   flag disables those refutations.
//! * Integers beyond 2⁵³ lose precision as `f64`; integer bounds are
//!   kept as exact `i64` and only compared through the same casts the
//!   engine itself uses.
//!
//! The encoded record carries the page id and an FNV checksum; decode
//! returns `None` on any fault (wrong magic/version/length/pid/checksum)
//! and the scan falls back to a counted full page read — a corrupted or
//! misrouted sidecar can cost a read, never an answer.

use rql_pagestore::{fnv1a, Page, PageId};

use crate::cexpr::CExpr;
use crate::record::Row;
use crate::value::Value;

/// Bump when the encoded layout changes; folded into the memo
/// page-version key so cached results can never be served across a
/// format change.
pub const SIDECAR_FORMAT_VERSION: u8 = 1;

/// Most columns one sidecar will summarize (keeps sidecars small).
pub const MAX_SIDECAR_COLS: usize = 8;

const MAGIC: &[u8; 4] = b"RQSC";
const BLOOM_BYTES: usize = 32;
/// Fixed header: magic(4) + version(1) + ncols(1) + reserved(2) +
/// pid(8) + next(8).
const HEADER: usize = 24;
/// Per-column entry: col_idx(2) + flags(1) + ilo(8) + ihi(8) + rlo(8) +
/// rhi(8).
const COL_ENTRY: usize = 35;
const NIL_NEXT: u64 = u64::MAX;

/// Column value classes observed on the page.
const F_INT: u8 = 1 << 0;
/// At least one finite `Real` (NaN excluded; ±inf included).
const F_REAL: u8 = 1 << 1;
const F_TEXT: u8 = 1 << 2;
const F_NULL: u8 = 1 << 3;
/// At least one `Real` NaN — NaN compares `Equal` to every number in
/// this engine, so it satisfies `=`, `<=`, `>=` against any constant.
const F_NAN: u8 = 1 << 4;

/// Per-column summary inside a decoded sidecar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Column index within the table's rows.
    pub col: usize,
    /// `F_*` class flags.
    flags: u8,
    /// Exact integer bounds (valid iff `F_INT`).
    ilo: i64,
    /// See [`ColumnStats::ilo`].
    ihi: i64,
    /// Finite-real bounds (valid iff `F_REAL`).
    rlo: f64,
    /// See [`ColumnStats::rlo`].
    rhi: f64,
}

/// A decoded (validated) sidecar for one heap page.
#[derive(Debug, Clone, PartialEq)]
pub struct Sidecar {
    /// Page this sidecar describes.
    pub pid: u64,
    /// The page's heap-chain successor at build time (`None` = end of
    /// chain), so a pruned scan can continue the walk without fetching
    /// the page body.
    pub next: Option<PageId>,
    cols: Vec<ColumnStats>,
    bloom: [u8; BLOOM_BYTES],
}

/// One refutable conjunct: a comparison between a column and a non-NULL,
/// non-NaN constant.
#[derive(Debug, Clone, PartialEq)]
pub enum PredAtom {
    /// `col = K`.
    Eq(usize, Value),
    /// `col < K`.
    Lt(usize, Value),
    /// `col <= K`.
    Le(usize, Value),
    /// `col > K`.
    Gt(usize, Value),
    /// `col >= K`.
    Ge(usize, Value),
}

impl PredAtom {
    /// The column this atom constrains.
    pub fn col(&self) -> usize {
        match self {
            PredAtom::Eq(c, _)
            | PredAtom::Lt(c, _)
            | PredAtom::Le(c, _)
            | PredAtom::Gt(c, _)
            | PredAtom::Ge(c, _) => *c,
        }
    }
}

/// The refutable fragment of a conjunctive WHERE clause.
///
/// Conjuncts that don't fit the `col ⋄ const` shape are simply *not
/// represented* — the summary is an over-approximation of the predicate,
/// so refuting any atom refutes the whole conjunction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredSummary {
    /// Extracted atoms.
    pub atoms: Vec<PredAtom>,
}

impl PredSummary {
    /// Extract refutable atoms from compiled conjuncts whose `Col`
    /// offsets start at `col_base` (subtracted so atoms use table-local
    /// column indices). Nested ANDs are walked; everything else that
    /// doesn't match `col ⋄ const` is ignored.
    pub fn from_conjuncts<'a>(
        conjuncts: impl IntoIterator<Item = &'a CExpr>,
        col_base: usize,
    ) -> PredSummary {
        let mut summary = PredSummary::default();
        for c in conjuncts {
            summary.collect(c, col_base);
        }
        summary
    }

    fn collect(&mut self, expr: &CExpr, col_base: usize) {
        use crate::ast::BinOp;
        match expr {
            CExpr::Binary(BinOp::And, a, b) => {
                self.collect(a, col_base);
                self.collect(b, col_base);
            }
            CExpr::Binary(op, a, b) => {
                let atom = match (&**a, &**b) {
                    (CExpr::Col(i), CExpr::Const(k)) => make_atom(*op, *i, k, col_base, false),
                    (CExpr::Const(k), CExpr::Col(i)) => make_atom(*op, *i, k, col_base, true),
                    _ => None,
                };
                if let Some(atom) = atom {
                    self.atoms.push(atom);
                }
            }
            CExpr::Between(e, lo, hi, false) => {
                if let (CExpr::Col(i), CExpr::Const(lo), CExpr::Const(hi)) = (&**e, &**lo, &**hi) {
                    if let Some(i) = i.checked_sub(col_base) {
                        if usable_const(lo) {
                            self.atoms.push(PredAtom::Ge(i, lo.clone()));
                        }
                        if usable_const(hi) {
                            self.atoms.push(PredAtom::Le(i, hi.clone()));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether no atoms were extracted (pruning can't help).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// NULL constants are skipped (three-valued logic makes `col < NULL`
/// reject every row — correct to not prune on, and rare); NaN constants
/// are skipped because NaN compares `Equal` to every number here.
fn usable_const(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Real(r) => !r.is_nan(),
        _ => true,
    }
}

fn make_atom(
    op: crate::ast::BinOp,
    col: usize,
    k: &Value,
    col_base: usize,
    flipped: bool,
) -> Option<PredAtom> {
    use crate::ast::BinOp;
    if !usable_const(k) {
        return None;
    }
    let col = col.checked_sub(col_base)?;
    let k = k.clone();
    // `K op col` mirrors to `col op' K`.
    Some(match (op, flipped) {
        (BinOp::Eq, _) => PredAtom::Eq(col, k),
        (BinOp::Lt, false) | (BinOp::Gt, true) => PredAtom::Lt(col, k),
        (BinOp::Le, false) | (BinOp::Ge, true) => PredAtom::Le(col, k),
        (BinOp::Gt, false) | (BinOp::Lt, true) => PredAtom::Gt(col, k),
        (BinOp::Ge, false) | (BinOp::Le, true) => PredAtom::Ge(col, k),
        _ => return None,
    })
}

impl ColumnStats {
    fn has(&self, f: u8) -> bool {
        self.flags & f != 0
    }

    /// Whether this column summary proves no value can satisfy `atom`.
    fn refutes(&self, atom: &PredAtom) -> bool {
        match atom {
            PredAtom::Eq(_, k) => match k {
                // NaN values compare Equal to any number: can't refute.
                Value::Integer(_) | Value::Real(_) if self.has(F_NAN) => false,
                Value::Integer(k) => {
                    let int_miss = !self.has(F_INT) || *k < self.ilo || *k > self.ihi;
                    let kf = *k as f64;
                    let real_miss = !self.has(F_REAL) || kf < self.rlo || kf > self.rhi;
                    int_miss && real_miss
                }
                Value::Real(k) => {
                    // Conservative: compare through the same f64 casts
                    // the engine uses for Integer↔Real.
                    let int_miss = !self.has(F_INT) || *k < self.ilo as f64 || *k > self.ihi as f64;
                    let real_miss = !self.has(F_REAL) || *k < self.rlo || *k > self.rhi;
                    int_miss && real_miss
                }
                // Only text equals text (numbers sort strictly below).
                Value::Text(_) => !self.has(F_TEXT),
                Value::Null => false,
            },
            PredAtom::Lt(_, k) | PredAtom::Le(_, k) => {
                let le = matches!(atom, PredAtom::Le(..));
                match k {
                    Value::Integer(_) | Value::Real(_) => {
                        // Only numeric values sort below a number; NaN
                        // compares Equal so it satisfies `<=` only.
                        if le && self.has(F_NAN) {
                            return false;
                        }
                        let int_sat = self.has(F_INT) && {
                            match k {
                                Value::Integer(k) => {
                                    if le {
                                        self.ilo <= *k
                                    } else {
                                        self.ilo < *k
                                    }
                                }
                                Value::Real(k) => {
                                    let lo = self.ilo as f64;
                                    if le {
                                        lo <= *k
                                    } else {
                                        lo < *k
                                    }
                                }
                                _ => unreachable!(),
                            }
                        };
                        let kf = num_as_f64(k);
                        let real_sat =
                            self.has(F_REAL) && if le { self.rlo <= kf } else { self.rlo < kf };
                        !int_sat && !real_sat
                    }
                    // Every number (and NaN) sorts below text, and we keep
                    // no text ordering info — refutable only when the
                    // column holds nothing but NULLs.
                    Value::Text(_) => {
                        !self.has(F_INT)
                            && !self.has(F_REAL)
                            && !self.has(F_NAN)
                            && !self.has(F_TEXT)
                    }
                    Value::Null => false,
                }
            }
            PredAtom::Gt(_, k) | PredAtom::Ge(_, k) => {
                let ge = matches!(atom, PredAtom::Ge(..));
                match k {
                    Value::Integer(_) | Value::Real(_) => {
                        // Any text sorts above every number.
                        if self.has(F_TEXT) {
                            return false;
                        }
                        // NaN compares Equal: satisfies `>=` only.
                        if ge && self.has(F_NAN) {
                            return false;
                        }
                        let int_sat = self.has(F_INT) && {
                            match k {
                                Value::Integer(k) => {
                                    if ge {
                                        self.ihi >= *k
                                    } else {
                                        self.ihi > *k
                                    }
                                }
                                Value::Real(k) => {
                                    let hi = self.ihi as f64;
                                    if ge {
                                        hi >= *k
                                    } else {
                                        hi > *k
                                    }
                                }
                                _ => unreachable!(),
                            }
                        };
                        let kf = num_as_f64(k);
                        let real_sat =
                            self.has(F_REAL) && if ge { self.rhi >= kf } else { self.rhi > kf };
                        !int_sat && !real_sat
                    }
                    // Only text sorts above text; we keep no text
                    // ordering, so text presence forbids refutation.
                    Value::Text(_) => !self.has(F_TEXT),
                    Value::Null => false,
                }
            }
        }
    }
}

fn num_as_f64(v: &Value) -> f64 {
    match v {
        Value::Integer(i) => *i as f64,
        Value::Real(r) => *r,
        _ => unreachable!("num_as_f64 on non-numeric"),
    }
}

impl Sidecar {
    /// Whether the page provably contains no row satisfying `pred`.
    ///
    /// Returns `false` (don't prune) whenever in doubt: unknown columns,
    /// empty summaries, anything not covered.
    pub fn refutes(&self, pred: &PredSummary) -> bool {
        pred.atoms.iter().any(|atom| {
            let Some(stats) = self.cols.iter().find(|c| c.col == atom.col()) else {
                return false;
            };
            if stats.refutes(atom) {
                return true;
            }
            // Bloom probe for text equality: zone flags said text is
            // present, but this exact string may still be provably
            // absent.
            if let PredAtom::Eq(_, Value::Text(s)) = atom {
                return !self.bloom_may_contain(atom.col(), s);
            }
            false
        })
    }

    fn bloom_may_contain(&self, col: usize, s: &str) -> bool {
        let (b1, b2) = bloom_bits(col, s);
        self.bloom[b1 / 8] & (1 << (b1 % 8)) != 0 && self.bloom[b2 / 8] & (1 << (b2 % 8)) != 0
    }

    /// Decode and validate a sidecar for page `pid`. Any fault — wrong
    /// length, magic, version, pid, checksum, inconsistent column count —
    /// yields `None`, and the caller falls back to reading the page.
    pub fn decode(bytes: &[u8], pid: PageId) -> Option<Sidecar> {
        if bytes.len() < HEADER + BLOOM_BYTES + 8 {
            return None;
        }
        if &bytes[0..4] != MAGIC || bytes[4] != SIDECAR_FORMAT_VERSION {
            return None;
        }
        let ncols = bytes[5] as usize;
        if ncols > MAX_SIDECAR_COLS {
            return None;
        }
        let expect_len = HEADER + ncols * COL_ENTRY + BLOOM_BYTES + 8;
        if bytes.len() != expect_len {
            return None;
        }
        let body = &bytes[..expect_len - 8];
        let stored_sum = u64::from_le_bytes(bytes[expect_len - 8..].try_into().ok()?);
        if fnv1a(body) != stored_sum {
            return None;
        }
        let stored_pid = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        if stored_pid != pid.0 {
            return None;
        }
        let next_raw = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        let mut cols = Vec::with_capacity(ncols);
        let mut pos = HEADER;
        for _ in 0..ncols {
            let col = u16::from_le_bytes(bytes[pos..pos + 2].try_into().ok()?) as usize;
            let flags = bytes[pos + 2];
            let ilo = i64::from_le_bytes(bytes[pos + 3..pos + 11].try_into().ok()?);
            let ihi = i64::from_le_bytes(bytes[pos + 11..pos + 19].try_into().ok()?);
            let rlo = f64::from_bits(u64::from_le_bytes(
                bytes[pos + 19..pos + 27].try_into().ok()?,
            ));
            let rhi = f64::from_bits(u64::from_le_bytes(
                bytes[pos + 27..pos + 35].try_into().ok()?,
            ));
            cols.push(ColumnStats {
                col,
                flags,
                ilo,
                ihi,
                rlo,
                rhi,
            });
            pos += COL_ENTRY;
        }
        let mut bloom = [0u8; BLOOM_BYTES];
        bloom.copy_from_slice(&bytes[pos..pos + BLOOM_BYTES]);
        Some(Sidecar {
            pid: pid.0,
            next: (next_raw != NIL_NEXT).then_some(PageId(next_raw)),
            cols,
            bloom,
        })
    }
}

fn bloom_bits(col: usize, s: &str) -> (usize, usize) {
    let mut key = Vec::with_capacity(2 + s.len());
    key.extend_from_slice(&(col as u16).to_le_bytes());
    key.extend_from_slice(s.as_bytes());
    let h = fnv1a(&key);
    ((h & 0xFF) as usize, ((h >> 32) & 0xFF) as usize)
}

/// Build the encoded sidecar for one heap page image, summarizing
/// `cols` (table-local column indices, deduplicated/truncated to
/// [`MAX_SIDECAR_COLS`]). Returns `None` when the page does not parse
/// as a well-formed heap page — the builder also sees B-tree and
/// catalog pages at commit time, and must never panic or misdescribe
/// them (their "sidecars" are simply absent, which scans treat as
/// "don't prune").
pub fn build_sidecar(pid: PageId, page: &Page, cols: &[usize]) -> Option<Vec<u8>> {
    let rows = safe_page_rows(page)?;
    let next = page.read_u64(crate::heap::OFF_NEXT);
    let mut picked: Vec<usize> = Vec::new();
    for &c in cols {
        if !picked.contains(&c) {
            picked.push(c);
        }
        if picked.len() == MAX_SIDECAR_COLS {
            break;
        }
    }
    if picked.is_empty() {
        return None;
    }
    picked.sort_unstable();

    let mut bloom = [0u8; BLOOM_BYTES];
    let mut stats: Vec<ColumnStats> = Vec::new();
    for &col in &picked {
        if col > u16::MAX as usize {
            continue;
        }
        // Skip columns absent from any row: the engine would error on
        // such rows anyway, and "not covered" is always safe.
        if rows.iter().any(|r| col >= r.len()) && !rows.is_empty() {
            continue;
        }
        let mut cs = ColumnStats {
            col,
            flags: 0,
            ilo: i64::MAX,
            ihi: i64::MIN,
            rlo: f64::INFINITY,
            rhi: f64::NEG_INFINITY,
        };
        for row in &rows {
            match &row[col] {
                Value::Null => cs.flags |= F_NULL,
                Value::Integer(i) => {
                    cs.flags |= F_INT;
                    cs.ilo = cs.ilo.min(*i);
                    cs.ihi = cs.ihi.max(*i);
                }
                Value::Real(r) if r.is_nan() => cs.flags |= F_NAN,
                Value::Real(r) => {
                    cs.flags |= F_REAL;
                    cs.rlo = cs.rlo.min(*r);
                    cs.rhi = cs.rhi.max(*r);
                }
                Value::Text(t) => {
                    cs.flags |= F_TEXT;
                    let (b1, b2) = bloom_bits(col, t);
                    bloom[b1 / 8] |= 1 << (b1 % 8);
                    bloom[b2 / 8] |= 1 << (b2 % 8);
                }
            }
        }
        stats.push(cs);
    }
    if stats.is_empty() {
        return None;
    }

    let mut out = Vec::with_capacity(HEADER + stats.len() * COL_ENTRY + BLOOM_BYTES + 8);
    out.extend_from_slice(MAGIC);
    out.push(SIDECAR_FORMAT_VERSION);
    out.push(stats.len() as u8);
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&pid.0.to_le_bytes());
    out.extend_from_slice(&next.to_le_bytes());
    for cs in &stats {
        out.extend_from_slice(&(cs.col as u16).to_le_bytes());
        out.push(cs.flags);
        out.extend_from_slice(&cs.ilo.to_le_bytes());
        out.extend_from_slice(&cs.ihi.to_le_bytes());
        out.extend_from_slice(&cs.rlo.to_bits().to_le_bytes());
        out.extend_from_slice(&cs.rhi.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&bloom);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    Some(out)
}

/// Parse a page as a slotted heap page *without* trusting any of its
/// bytes: every offset is bounds-checked and every record's claimed
/// column count is validated against the cell length before allocation.
/// `None` means "not a heap page I can vouch for".
fn safe_page_rows(page: &Page) -> Option<Vec<Row>> {
    const PAGE_HEADER: usize = 16;
    const SLOT_SIZE: usize = 4;
    let size = page.size();
    if size < PAGE_HEADER {
        return None;
    }
    let slot_count = page.read_u16(8) as usize; // OFF_SLOT_COUNT
    let slots_end = PAGE_HEADER.checked_add(SLOT_SIZE.checked_mul(slot_count)?)?;
    if slots_end > size {
        return None;
    }
    let mut rows = Vec::new();
    for slot in 0..slot_count {
        let base = PAGE_HEADER + SLOT_SIZE * slot;
        let off = page.read_u16(base) as usize;
        let len = page.read_u16(base + 2) as usize;
        if len == 0 {
            continue;
        }
        if off < slots_end || off.checked_add(len)? > size {
            return None;
        }
        let cell = page.read_slice(off, len);
        // Reject absurd column counts before decode_row allocates.
        let mut pos = 0usize;
        let count = read_varint_checked(cell, &mut pos)? as usize;
        if count > len {
            return None;
        }
        rows.push(crate::record::decode_row(cell).ok()?);
    }
    Some(rows)
}

fn read_varint_checked(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::heap::{FreeSpaceMap, HeapFile};
    use crate::record::encode_row;
    use rql_pagestore::{Pager, PagerConfig};
    use std::sync::Arc;

    fn page_with_rows(rows: &[Vec<Value>]) -> (PageId, Page) {
        let pager = Arc::new(Pager::new(PagerConfig {
            page_size: 4096,
            cache_capacity: 16,
            wal_sync_on_commit: false,
        }));
        let mut txn = pager.begin_write().unwrap();
        let heap = HeapFile::create(&mut txn).unwrap();
        let mut fsm = FreeSpaceMap::new();
        for row in rows {
            let mut buf = Vec::new();
            encode_row(row, &mut buf);
            heap.insert(&mut txn, &buf, &mut fsm).unwrap();
        }
        let pid = heap.root();
        let page = (*txn.read_page(pid).unwrap()).clone();
        pager.abort(txn);
        (pid, page)
    }

    fn sidecar_for(rows: &[Vec<Value>], cols: &[usize]) -> Sidecar {
        let (pid, page) = page_with_rows(rows);
        let bytes = build_sidecar(pid, &page, cols).expect("buildable");
        Sidecar::decode(&bytes, pid).expect("decodable")
    }

    fn eq(col: usize, v: Value) -> PredSummary {
        PredSummary {
            atoms: vec![PredAtom::Eq(col, v)],
        }
    }

    #[test]
    fn zone_map_refutes_out_of_range_eq_and_ranges() {
        let rows: Vec<Vec<Value>> = (10..20)
            .map(|i| vec![Value::Integer(i), Value::text(format!("u{i}"))])
            .collect();
        let sc = sidecar_for(&rows, &[0, 1]);
        assert!(sc.refutes(&eq(0, Value::Integer(5))));
        assert!(sc.refutes(&eq(0, Value::Integer(25))));
        assert!(!sc.refutes(&eq(0, Value::Integer(15))));
        // Ranges.
        let lt5 = PredSummary {
            atoms: vec![PredAtom::Lt(0, Value::Integer(10))],
        };
        assert!(sc.refutes(&lt5));
        let le10 = PredSummary {
            atoms: vec![PredAtom::Le(0, Value::Integer(10))],
        };
        assert!(!sc.refutes(&le10));
        let gt19 = PredSummary {
            atoms: vec![PredAtom::Gt(0, Value::Integer(19))],
        };
        assert!(sc.refutes(&gt19));
        let ge19 = PredSummary {
            atoms: vec![PredAtom::Ge(0, Value::Integer(19))],
        };
        assert!(!sc.refutes(&ge19));
        // Real constants against integer data.
        assert!(sc.refutes(&eq(0, Value::Real(5.5))));
        assert!(!sc.refutes(&eq(0, Value::Real(15.0))));
    }

    #[test]
    fn bloom_refutes_absent_text() {
        let rows: Vec<Vec<Value>> = (0..8)
            .map(|i| vec![Value::Integer(i), Value::text(format!("user{i}"))])
            .collect();
        let sc = sidecar_for(&rows, &[0, 1]);
        assert!(!sc.refutes(&eq(1, Value::text("user3"))));
        // A string that's absent: overwhelmingly likely to miss both bits.
        let mut refuted = 0;
        for i in 100..200 {
            if sc.refutes(&eq(1, Value::text(format!("nosuchuser{i}")))) {
                refuted += 1;
            }
        }
        assert!(refuted > 50, "bloom refuted only {refuted}/100 absent keys");
    }

    #[test]
    fn nan_disables_eq_le_ge_refutation() {
        let rows = vec![vec![Value::Real(f64::NAN)], vec![Value::Real(5.0)]];
        let sc = sidecar_for(&rows, &[0]);
        // NaN compares Equal to everything in this engine.
        assert!(!sc.refutes(&eq(0, Value::Real(999.0))));
        let le = PredSummary {
            atoms: vec![PredAtom::Le(0, Value::Real(-100.0))],
        };
        assert!(!sc.refutes(&le));
        let ge = PredSummary {
            atoms: vec![PredAtom::Ge(0, Value::Real(100.0))],
        };
        assert!(!sc.refutes(&ge));
        // Strict comparisons are still refutable: NaN is never Lt/Gt.
        let lt = PredSummary {
            atoms: vec![PredAtom::Lt(0, Value::Real(-100.0))],
        };
        assert!(sc.refutes(&lt));
        let gt = PredSummary {
            atoms: vec![PredAtom::Gt(0, Value::Real(100.0))],
        };
        assert!(sc.refutes(&gt));
    }

    #[test]
    fn text_sorts_above_numbers_blocks_gt_refutation() {
        let rows = vec![vec![Value::Integer(1)], vec![Value::text("z")]];
        let sc = sidecar_for(&rows, &[0]);
        // `col > 100` is satisfied by the text row (text > numbers).
        let gt = PredSummary {
            atoms: vec![PredAtom::Gt(0, Value::Integer(100))],
        };
        assert!(!sc.refutes(&gt));
        // `col < 0`: text never sorts below a number, ints start at 1.
        let lt = PredSummary {
            atoms: vec![PredAtom::Lt(0, Value::Integer(0))],
        };
        assert!(sc.refutes(&lt));
    }

    #[test]
    fn all_null_column_refutes_everything_comparable() {
        let rows = vec![vec![Value::Null], vec![Value::Null]];
        let sc = sidecar_for(&rows, &[0]);
        assert!(sc.refutes(&eq(0, Value::Integer(1))));
        assert!(sc.refutes(&eq(0, Value::text("x"))));
        let lt_text = PredSummary {
            atoms: vec![PredAtom::Lt(0, Value::text("m"))],
        };
        assert!(sc.refutes(&lt_text));
    }

    #[test]
    fn corrupted_bytes_decode_to_none() {
        let rows = vec![vec![Value::Integer(1)]];
        let (pid, page) = page_with_rows(&rows);
        let bytes = build_sidecar(pid, &page, &[0]).unwrap();
        assert!(Sidecar::decode(&bytes, pid).is_some());
        // Flip a byte anywhere: checksum must catch it.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Sidecar::decode(&bad, pid).is_none(), "byte {i} undetected");
        }
        // Truncation.
        assert!(Sidecar::decode(&bytes[..bytes.len() - 1], pid).is_none());
        // Misrouted: right bytes, wrong page.
        assert!(Sidecar::decode(&bytes, PageId(pid.0 + 1)).is_none());
    }

    #[test]
    fn builder_rejects_garbage_pages() {
        // Random-ish bytes must not panic and must not produce a sidecar
        // claiming anything.
        let mut page = Page::zeroed(4096);
        for i in 0..4096 {
            page.bytes_mut()[i] = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        assert!(build_sidecar(PageId(3), &page, &[0, 1]).is_none());
    }

    #[test]
    fn pred_summary_extraction_handles_shapes() {
        use CExpr::*;
        let conjuncts = [
            // col1 = 5
            Binary(
                BinOp::Eq,
                Box::new(Col(1)),
                Box::new(Const(Value::Integer(5))),
            ),
            // 10 > col2  ⇒  col2 < 10
            Binary(
                BinOp::Gt,
                Box::new(Const(Value::Integer(10))),
                Box::new(Col(2)),
            ),
            // col3 BETWEEN 1 AND 9
            Between(
                Box::new(Col(3)),
                Box::new(Const(Value::Integer(1))),
                Box::new(Const(Value::Integer(9))),
                false,
            ),
            // Unsummarizable: col1 = col2.
            Binary(BinOp::Eq, Box::new(Col(1)), Box::new(Col(2))),
            // Unsummarizable: NULL constant.
            Binary(BinOp::Lt, Box::new(Col(1)), Box::new(Const(Value::Null))),
        ];
        let summary = PredSummary::from_conjuncts(conjuncts.iter(), 1);
        assert_eq!(
            summary.atoms,
            vec![
                PredAtom::Eq(0, Value::Integer(5)),
                PredAtom::Lt(1, Value::Integer(10)),
                PredAtom::Ge(2, Value::Integer(1)),
                PredAtom::Le(2, Value::Integer(9)),
            ]
        );
    }

    #[test]
    fn next_pointer_survives_roundtrip() {
        let rows = vec![vec![Value::Integer(1)]];
        let (pid, mut page) = page_with_rows(&rows);
        let sc = {
            let bytes = build_sidecar(pid, &page, &[0]).unwrap();
            Sidecar::decode(&bytes, pid).unwrap()
        };
        assert_eq!(sc.next, None);
        page.write_u64(0, 7); // link to page 7
        let sc = {
            let bytes = build_sidecar(pid, &page, &[0]).unwrap();
            Sidecar::decode(&bytes, pid).unwrap()
        };
        assert_eq!(sc.next, Some(PageId(7)));
    }
}
