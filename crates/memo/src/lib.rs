//! # rql-memo
//!
//! Content-addressed memoization store for retrospective computations.
//!
//! Retro snapshots are immutable, so the result of a per-snapshot query
//! `Qq` evaluated at snapshot `S` can never change — yet the RQL loop
//! recomputes it on every query, every session, every server client.
//! This crate caches two kinds of per-snapshot artifacts:
//!
//! * [`EntryKind::Result`] — the full `Qq` result (columns + rows) for
//!   one snapshot, foldable into any mechanism exactly like a live
//!   execution;
//! * [`EntryKind::Seed`] — an exported [`ScannerSeed`] capturing the
//!   delta scanner's post-scan state at one snapshot, so a memoized
//!   iteration keeps the *next* iteration on the delta path.
//!
//! Keying is content-addressed: a fingerprint of the canonical
//! *pre-rewrite* `Qq` text (so `AS OF` injection does not fragment
//! keys), the snapshot id, and a page-version vector (`pvv`) covering
//! the SPT mapping and the touched tables' roots and indexes. The `pvv`
//! is verified on every hit; snapshot immutability makes mismatches
//! rare (page archival, ad-hoc index drift) and a mismatch only costs a
//! recompute, never a wrong answer.
//!
//! Storage is a sharded in-memory LRU with byte-budget accounting plus
//! an optional disk-spill tier. The spill tier is strictly best-effort:
//! every file carries a magic, key echo and checksum, and **any** IO or
//! corruption failure degrades to a cache miss (the caller recomputes)
//! — a cache fault never fails a query.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rql_sqlengine::record::{decode_row, encode_row, encoded_len};
use rql_sqlengine::{Row, ScannerSeed, SeedPage};

const MAGIC: &[u8; 8] = b"RQLMEMO1";
/// Fixed per-entry bookkeeping overhead charged to the byte budget.
const ENTRY_OVERHEAD: usize = 96;

/// Configuration for a [`MemoStore`].
#[derive(Debug, Clone)]
pub struct MemoConfig {
    /// Number of independently locked shards.
    pub shards: usize,
    /// Total in-memory byte budget across all shards.
    pub byte_budget: usize,
    /// Optional directory for the disk-spill tier. Entries are written
    /// through on insert and read back on memory misses; the directory
    /// is created on demand.
    pub spill_dir: Option<PathBuf>,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            shards: 8,
            byte_budget: 64 << 20,
            spill_dir: None,
        }
    }
}

/// What kind of artifact an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A complete per-snapshot `Qq` result.
    Result,
    /// A delta-scanner seed exported after scanning one snapshot.
    Seed,
}

impl EntryKind {
    fn tag(self) -> u8 {
        match self {
            EntryKind::Result => 0,
            EntryKind::Seed => 1,
        }
    }
}

/// Cache key: query fingerprint × snapshot × artifact kind. The
/// page-version vector is deliberately *not* part of the key — it is
/// stored with the entry and verified on lookup, so true cold misses
/// never pay for computing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Fingerprint of the canonical pre-rewrite `Qq` text.
    pub fingerprint: u64,
    /// Snapshot the artifact was computed at.
    pub snap_id: u64,
    /// Artifact kind.
    pub kind: EntryKind,
}

/// A cached artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoValue {
    /// Column names and rows of a `Qq` execution.
    Result {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows, in execution order.
        rows: Vec<Row>,
    },
    /// Exported delta-scanner state.
    Seed(ScannerSeed),
}

impl MemoValue {
    /// Approximate heap footprint, charged against the byte budget.
    pub fn approx_bytes(&self) -> usize {
        match self {
            MemoValue::Result { columns, rows } => {
                columns.iter().map(|c| c.len() + 24).sum::<usize>()
                    + rows.iter().map(|r| encoded_len(r) + 16).sum::<usize>()
            }
            MemoValue::Seed(seed) => seed
                .pages
                .iter()
                .map(|p| 32 + p.rows.iter().map(|r| encoded_len(r) + 16).sum::<usize>())
                .sum::<usize>(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        fn put_rows(rows: &[Row], out: &mut Vec<u8>) {
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                let mut buf = Vec::with_capacity(encoded_len(row));
                encode_row(row, &mut buf);
                out.extend_from_slice(&(buf.len() as u32).to_le_bytes());
                out.extend_from_slice(&buf);
            }
        }
        match self {
            MemoValue::Result { columns, rows } => {
                out.push(0);
                out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
                for c in columns {
                    out.extend_from_slice(&(c.len() as u32).to_le_bytes());
                    out.extend_from_slice(c.as_bytes());
                }
                put_rows(rows, out);
            }
            MemoValue::Seed(seed) => {
                out.push(1);
                out.extend_from_slice(&seed.root.to_le_bytes());
                out.extend_from_slice(&(seed.pages.len() as u32).to_le_bytes());
                for p in &seed.pages {
                    out.extend_from_slice(&p.page.to_le_bytes());
                    out.push(u8::from(p.next.is_some()));
                    out.extend_from_slice(&p.next.unwrap_or(0).to_le_bytes());
                    put_rows(&p.rows, out);
                }
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<MemoValue> {
        struct Cur<'a>(&'a [u8]);
        impl<'a> Cur<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                if self.0.len() < n {
                    return None;
                }
                let (head, tail) = self.0.split_at(n);
                self.0 = tail;
                Some(head)
            }
            fn u8(&mut self) -> Option<u8> {
                self.take(1).map(|b| b[0])
            }
            fn u32(&mut self) -> Option<u32> {
                self.take(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            fn u64(&mut self) -> Option<u64> {
                let b = self.take(8)?;
                let mut a = [0u8; 8];
                a.copy_from_slice(b);
                Some(u64::from_le_bytes(a))
            }
            fn rows(&mut self) -> Option<Vec<Row>> {
                let n = self.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let len = self.u32()? as usize;
                    let buf = self.take(len)?;
                    rows.push(decode_row(buf).ok()?);
                }
                Some(rows)
            }
        }
        let mut cur = Cur(bytes);
        let value = match cur.u8()? {
            0 => {
                let ncols = cur.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1 << 12));
                for _ in 0..ncols {
                    let len = cur.u32()? as usize;
                    let raw = cur.take(len)?;
                    columns.push(String::from_utf8(raw.to_vec()).ok()?);
                }
                MemoValue::Result {
                    columns,
                    rows: cur.rows()?,
                }
            }
            1 => {
                let root = cur.u64()?;
                let npages = cur.u32()? as usize;
                let mut pages = Vec::with_capacity(npages.min(1 << 16));
                for _ in 0..npages {
                    let page = cur.u64()?;
                    let has_next = cur.u8()? != 0;
                    let next = cur.u64()?;
                    pages.push(SeedPage {
                        page,
                        next: has_next.then_some(next),
                        rows: cur.rows()?,
                    });
                }
                MemoValue::Seed(ScannerSeed { root, pages })
            }
            _ => return None,
        };
        cur.0.is_empty().then_some(value)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

rql_trace::registry! {
    #[derive(Debug, Default)]
    struct MemoStats(AtomicU64) =>
    /// Point-in-time view of a store's counters.
    MemoStatsSnapshot {
        /// Lookups answered from the cache (memory or spill).
        hits: counter,
        /// Lookups that fell through to recomputation.
        misses: counter,
        /// Entries evicted from memory by the byte budget.
        evictions: counter,
        /// Entries inserted.
        inserts: counter,
        /// Current in-memory footprint in bytes.
        bytes: gauge,
        /// Entries successfully read back from the spill tier.
        spill_reads: counter,
        /// Entries written to the spill tier.
        spill_writes: counter,
        /// Bytes written to the spill tier (cumulative).
        spill_bytes: counter,
        /// Spill IO/corruption faults absorbed (each one degraded to a
        /// miss, never an error).
        spill_errors: counter,
    }
}

struct Entry {
    pvv: u64,
    value: MemoValue,
    bytes: usize,
    tick: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<MemoKey, Entry>,
    bytes: usize,
}

/// The memoization store: a sharded, byte-budgeted LRU over
/// [`MemoValue`] entries with page-version verification and an optional
/// disk-spill tier. All methods are `&self` and thread-safe; one store
/// is meant to be shared across every session of a server.
pub struct MemoStore {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    tick: AtomicU64,
    spill_dir: Option<PathBuf>,
    stats: MemoStats,
}

impl std::fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoStore")
            .field("shards", &self.shards.len())
            .field("per_shard_budget", &self.per_shard_budget)
            .field("spill_dir", &self.spill_dir)
            .finish()
    }
}

impl MemoStore {
    /// Create a store from `config`.
    pub fn new(config: MemoConfig) -> MemoStore {
        let shards = config.shards.max(1);
        MemoStore {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_budget: (config.byte_budget / shards).max(1),
            tick: AtomicU64::new(0),
            spill_dir: config.spill_dir,
            stats: MemoStats::default(),
        }
    }

    fn shard_of(&self, key: &MemoKey) -> usize {
        let mixed = key
            .fingerprint
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.snap_id)
            .wrapping_add(u64::from(key.kind.tag()));
        (mixed % self.shards.len() as u64) as usize
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up `key`, verifying the stored page-version vector against
    /// the one `pvv` computes. The closure is only invoked when an entry
    /// (memory or spill) actually exists, so cold misses never pay for
    /// it; `pvv` returning `None` means "unverifiable" and misses. A
    /// stale entry (pvv mismatch) is dropped from both tiers.
    pub fn lookup(&self, key: &MemoKey, pvv: impl FnOnce() -> Option<u64>) -> Option<MemoValue> {
        let _span = rql_trace::span(rql_trace::SpanId::MemoProbe);
        let found = self.probe(key, pvv);
        let outcome = match found {
            Some(_) => &self.stats.hits,
            None => &self.stats.misses,
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        found
    }

    fn probe(&self, key: &MemoKey, pvv: impl FnOnce() -> Option<u64>) -> Option<MemoValue> {
        let idx = self.shard_of(key);
        let mem_pvv = self.shards[idx].lock().map.get(key).map(|e| e.pvv);
        let spill_path = if mem_pvv.is_none() {
            self.spill_path(key).filter(|p| p.exists())
        } else {
            None
        };
        if mem_pvv.is_none() && spill_path.is_none() {
            return None;
        }
        let current = pvv()?;

        if let Some(stored) = mem_pvv {
            let mut shard = self.shards[idx].lock();
            if stored == current {
                if let Some(e) = shard.map.get_mut(key) {
                    if e.pvv == current {
                        e.tick = self.next_tick();
                        return Some(e.value.clone());
                    }
                }
            } else {
                if shard.map.get(key).is_some_and(|e| e.pvv == stored) {
                    Self::remove_entry(&mut shard, key, &self.stats);
                }
                drop(shard);
                if let Some(p) = self.spill_path(key) {
                    let _ = fs::remove_file(p);
                }
            }
            return None;
        }

        // Spill tier: memory missed but a file exists.
        let path = spill_path?;
        match self.spill_read(key, &path) {
            Some((stored, value)) if stored == current => {
                self.insert_mem(*key, current, value.clone());
                self.stats.spill_reads.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Some(_) => {
                let _ = fs::remove_file(&path);
                None
            }
            None => None,
        }
    }

    /// Insert an artifact computed at page-version `pvv`. Write-through
    /// to the spill tier when configured; evicts least-recently-used
    /// entries until the shard is back under budget.
    pub fn insert(&self, key: MemoKey, pvv: u64, value: MemoValue) {
        let _span = rql_trace::span(rql_trace::SpanId::MemoInsert);
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        self.spill_write(&key, pvv, &value);
        self.insert_mem(key, pvv, value);
    }

    fn insert_mem(&self, key: MemoKey, pvv: u64, value: MemoValue) {
        let bytes = value.approx_bytes() + ENTRY_OVERHEAD;
        let tick = self.next_tick();
        let mut shard = self.shards[self.shard_of(&key)].lock();
        Self::remove_entry(&mut shard, &key, &self.stats);
        let entry = Entry {
            pvv,
            value,
            bytes,
            tick,
        };
        shard.map.insert(key, entry);
        shard.bytes += bytes;
        self.stats.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        while shard.bytes > self.per_shard_budget {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    Self::remove_entry(&mut shard, &k, &self.stats);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    fn remove_entry(shard: &mut Shard, key: &MemoKey, stats: &MemoStats) {
        if let Some(old) = shard.map.remove(key) {
            shard.bytes = shard.bytes.saturating_sub(old.bytes);
            stats.bytes.fetch_sub(old.bytes as u64, Ordering::Relaxed);
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> MemoStatsSnapshot {
        self.stats.snapshot()
    }

    fn spill_path(&self, key: &MemoKey) -> Option<PathBuf> {
        self.spill_dir.as_ref().map(|d| {
            d.join(format!(
                "{:016x}-{}-{}.memo",
                key.fingerprint,
                key.snap_id,
                key.kind.tag()
            ))
        })
    }

    fn spill_write(&self, key: &MemoKey, pvv: u64, value: &MemoValue) {
        let Some(path) = self.spill_path(key) else {
            return;
        };
        let _span = rql_trace::span(rql_trace::SpanId::MemoSpillWrite);
        let mut payload = Vec::new();
        value.encode(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 45);
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&key.fingerprint.to_le_bytes());
        frame.extend_from_slice(&key.snap_id.to_le_bytes());
        frame.push(key.kind.tag());
        frame.extend_from_slice(&pvv.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        let tmp = path.with_extension(format!("tmp{}", self.next_tick()));
        let result = (|| -> std::io::Result<()> {
            if let Some(dir) = &self.spill_dir {
                fs::create_dir_all(dir)?;
            }
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&frame)?;
            f.sync_data()?;
            fs::rename(&tmp, &path)
        })();
        match result {
            Ok(()) => {
                self.stats.spill_writes.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .spill_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            Err(_) => self.spill_fault(&tmp),
        }
    }

    /// Count an absorbed spill fault and drop the file it left behind.
    fn spill_fault(&self, path: &Path) {
        self.stats.spill_errors.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(path);
    }

    /// Read one spill file, verifying magic, key echo and checksum.
    /// Returns `(stored_pvv, value)`; any fault counts a `spill_error`,
    /// removes the file and returns `None` (the caller recomputes).
    fn spill_read(&self, key: &MemoKey, path: &Path) -> Option<(u64, MemoValue)> {
        let _span = rql_trace::span(rql_trace::SpanId::MemoSpillRead);
        let Ok(bytes) = fs::read(path) else {
            self.spill_fault(path);
            return None;
        };
        let parsed = (|| -> Option<(u64, MemoValue)> {
            let header = 8 + 8 + 8 + 1 + 8 + 4 + 8;
            if bytes.len() < header || &bytes[..8] != MAGIC {
                return None;
            }
            let u64_at = |off: usize| {
                let mut a = [0u8; 8];
                a.copy_from_slice(&bytes[off..off + 8]);
                u64::from_le_bytes(a)
            };
            if u64_at(8) != key.fingerprint
                || u64_at(16) != key.snap_id
                || bytes[24] != key.kind.tag()
            {
                return None;
            }
            let pvv = u64_at(25);
            let len = u32::from_le_bytes([bytes[33], bytes[34], bytes[35], bytes[36]]) as usize;
            let checksum = u64_at(37);
            let payload = bytes.get(header..)?;
            if payload.len() != len || fnv1a(payload) != checksum {
                return None;
            }
            Some((pvv, MemoValue::decode(payload)?))
        })();
        if parsed.is_none() {
            self.spill_fault(path);
        }
        parsed
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use rql_sqlengine::Value;
    use std::sync::atomic::AtomicU32;

    fn key(fp: u64, sid: u64, kind: EntryKind) -> MemoKey {
        MemoKey {
            fingerprint: fp,
            snap_id: sid,
            kind,
        }
    }

    fn result_value(n: i64) -> MemoValue {
        MemoValue::Result {
            columns: vec!["a".into(), "b".into()],
            rows: (0..n)
                .map(|i| vec![Value::Integer(i), Value::text(format!("row-{i}"))])
                .collect(),
        }
    }

    fn seed_value() -> MemoValue {
        MemoValue::Seed(ScannerSeed {
            root: 7,
            pages: vec![
                SeedPage {
                    page: 7,
                    next: Some(9),
                    rows: vec![vec![Value::Integer(1), Value::Real(2.5)]],
                },
                SeedPage {
                    page: 9,
                    next: None,
                    rows: vec![vec![Value::Null, Value::text("x")]],
                },
            ],
        })
    }

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_spill_dir() -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rql-memo-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hit_miss_and_pvv_verification() {
        let store = MemoStore::new(MemoConfig::default());
        let k = key(1, 10, EntryKind::Result);
        // Cold miss: the pvv closure must not even run.
        assert!(store.lookup(&k, || panic!("pvv on cold miss")).is_none());
        store.insert(k, 42, result_value(3));
        assert_eq!(store.lookup(&k, || Some(42)), Some(result_value(3)));
        // Stale pvv drops the entry; the next matching lookup misses.
        assert!(store.lookup(&k, || Some(43)).is_none());
        assert!(store
            .lookup(&k, || panic!("entry should be gone"))
            .is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 3, 1));
    }

    #[test]
    fn value_encoding_round_trips() {
        for v in [result_value(5), result_value(0), seed_value()] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(MemoValue::decode(&buf), Some(v));
        }
        assert!(MemoValue::decode(&[]).is_none());
        assert!(MemoValue::decode(&[9, 0, 0]).is_none());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let store = MemoStore::new(MemoConfig {
            shards: 1,
            byte_budget: 4 * (result_value(50).approx_bytes() + ENTRY_OVERHEAD),
            spill_dir: None,
        });
        for sid in 0..16 {
            store.insert(key(1, sid, EntryKind::Result), 0, result_value(50));
        }
        let s = store.stats();
        assert!(s.evictions >= 10, "evictions={}", s.evictions);
        assert!(s.bytes <= 4 * (result_value(50).approx_bytes() as u64 + 96));
        // Newest entries survive, oldest are gone.
        assert!(store
            .lookup(&key(1, 15, EntryKind::Result), || Some(0))
            .is_some());
        assert!(store
            .lookup(&key(1, 0, EntryKind::Result), || panic!("evicted"))
            .is_none());
    }

    #[test]
    fn spill_serves_memory_misses() {
        let dir = temp_spill_dir();
        let store = MemoStore::new(MemoConfig {
            shards: 1,
            byte_budget: 1, // everything is evicted from memory at once
            spill_dir: Some(dir.clone()),
        });
        let k = key(0xabcd, 3, EntryKind::Seed);
        store.insert(k, 7, seed_value());
        let got = store.lookup(&k, || Some(7));
        assert_eq!(got, Some(seed_value()));
        let s = store.stats();
        assert_eq!(s.spill_writes, 1);
        assert_eq!(s.spill_reads, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.spill_errors, 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_spill_degrades_to_miss() {
        let dir = temp_spill_dir();
        let store = MemoStore::new(MemoConfig {
            shards: 1,
            byte_budget: 1,
            spill_dir: Some(dir.clone()),
        });
        let k = key(0xbeef, 5, EntryKind::Result);
        store.insert(k, 1, result_value(4));
        // Flip bytes in the payload of the one spill file.
        let file = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "memo"))
            .unwrap();
        let mut bytes = fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&file, bytes).unwrap();

        assert!(store.lookup(&k, || Some(1)).is_none());
        let s = store.stats();
        assert_eq!(s.spill_errors, 1);
        assert_eq!(s.hits, 0);
        // The corrupt file was deleted; the key is now a clean cold miss.
        assert!(store.lookup(&k, || panic!("no tiers left")).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn spill_io_failure_never_panics() {
        // A file where the directory should be: every write fails.
        let dir = temp_spill_dir();
        let bogus = dir.join("not-a-dir");
        fs::write(&bogus, b"x").unwrap();
        let store = MemoStore::new(MemoConfig {
            shards: 1,
            byte_budget: 1 << 20,
            spill_dir: Some(bogus),
        });
        let k = key(1, 1, EntryKind::Result);
        store.insert(k, 0, result_value(2));
        assert!(store.stats().spill_errors >= 1);
        // The memory tier still works.
        assert_eq!(store.lookup(&k, || Some(0)), Some(result_value(2)));
        let _ = fs::remove_dir_all(dir);
    }
}
