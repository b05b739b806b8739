//! The correctness oracle.
//!
//! Snapshots never change once declared, so every retrospective answer
//! the server gave during the run can be recomputed afterwards from the
//! durable store alone. Each program is recorded with a digest of its
//! answer; after the timed window the store is reopened and every
//! distinct program is replayed on an embedded, memo-off session with
//! the plain sequential mechanisms, and the digests are compared. On the
//! read-only workloads the replays run on a copy of the store taken
//! before the server opened it, between the timed slices of the window.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use rql::{parse_program, run_program_with_reports, QueryResult, Value};
use rql_retro::RetroStore;

use crate::setup::{open_store, other, session_over, RunConfig};

/// Row count plus an order-independent hash of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Rows across all result tables.
    pub rows: u64,
    /// Wrapping sum of row hashes.
    pub sum: u64,
    /// XOR of mixed row hashes.
    pub xor: u64,
}

fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// Hash of one row. Reals are compared to nine significant digits, so a
/// change of summation order cannot flip a digest.
fn row_hash(row: &[Value]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for v in row {
        let text = match v {
            Value::Null => "n".to_owned(),
            Value::Integer(i) => format!("i{i}"),
            Value::Real(r) => format!("r{r:.8e}"),
            Value::Text(s) => format!("t{s}"),
        };
        h = fnv(text.as_bytes(), h);
        h = fnv(&[0xFF], h);
    }
    h
}

impl Digest {
    /// Digest of a set of row lists.
    pub fn of<'a>(tables: impl IntoIterator<Item = &'a [Vec<Value>]>) -> Digest {
        let mut d = Digest::default();
        for rows in tables {
            for row in rows {
                let h = row_hash(row);
                d.rows += 1;
                d.sum = d.sum.wrapping_add(h);
                d.xor ^= mix(h);
            }
        }
        d
    }

    /// Digest of embedded query results.
    pub fn of_results(tables: &[QueryResult]) -> Digest {
        Digest::of(tables.iter().map(|t| t.rows.as_slice()))
    }
}

/// Every answer a run observed, by program: the program text with a fixed
/// result-table name, so repeats of one query share an entry.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Program text → every digest observed for it.
    pub answers: BTreeMap<String, Vec<Digest>>,
}

impl Ledger {
    /// Record one answered program.
    pub fn record(&mut self, program: String, digest: Digest) {
        self.answers.entry(program).or_default().push(digest);
    }

    /// Merge another connection's ledger.
    pub fn merge(&mut self, other: Ledger) {
        for (program, digests) in other.answers {
            self.answers.entry(program).or_default().extend(digests);
        }
    }
}

/// The replay side of the oracle: a store opened apart from the server's,
/// and what each distinct program's replay gave.
pub struct Oracle {
    store: Arc<RetroStore>,
    count: u64,
    /// Program text → the digest of its replay (`None`: the replay failed).
    replays: BTreeMap<String, Option<Digest>>,
    /// Recorded answers that disagree with the replay of their program,
    /// or whose replay failed.
    pub mismatches: u64,
}

impl Oracle {
    /// Open the durable store in `dir`: the server's after it stopped, or
    /// a copy of it taken before the server opened it.
    pub fn open(dir: &Path, config: &RunConfig) -> std::io::Result<Oracle> {
        let store = open_store(dir, config.retro())?;
        let count = store.snapshot_count();
        Ok(Oracle {
            store,
            count,
            replays: BTreeMap::new(),
            mismatches: 0,
        })
    }

    /// Distinct programs replayed so far.
    pub fn replayed(&self) -> u64 {
        self.replays.len() as u64
    }

    /// Replay every program of `ledger` not replayed yet, on two memo-off
    /// sessions, and compare every digest recorded for it with the
    /// replay's.
    pub fn check(&mut self, ledger: Ledger) -> std::io::Result<()> {
        let fresh: Vec<&String> = ledger
            .answers
            .keys()
            .filter(|text| !self.replays.contains_key(*text))
            .collect();
        let digests = replay_all(&self.store, self.count, &fresh)?;
        for (text, digest) in fresh.into_iter().zip(digests) {
            self.replays.insert(text.clone(), digest);
        }
        for (text, recorded) in &ledger.answers {
            let bad = match self.replays[text] {
                Some(want) => recorded.iter().filter(|d| **d != want).count() as u64,
                None => recorded.len() as u64,
            };
            if bad > 0 {
                eprintln!("oracle: {bad} answer(s) disagree with the replay of {text:?}");
            }
            self.mismatches += bad;
        }
        Ok(())
    }

    /// Whether `served`, the standing query's table as the server last
    /// served it, equals a batch recompute over the snapshots from
    /// `first` on.
    pub fn standing(&self, first: u64, served: Digest) -> std::io::Result<bool> {
        let session = session_over(&self.store, self.count)?;
        let program = format!(
            "SELECT AggregateDataInTable(snap_id, '{}', 'batch_dash', '(cn,max):(mp,max)') \
             FROM SnapIds WHERE snap_id >= {first};\n--@aux\nSELECT * FROM batch_dash;\n",
            crate::setup::STANDING_QQ
        );
        let parsed = parse_program(&program).map_err(|d| other(d.message))?;
        let run = run_program_with_reports(&session, &parsed).map_err(other)?;
        let batch = Digest::of_results(&run.tables);
        if batch != served {
            eprintln!("oracle: standing table {served:?} != batch recompute {batch:?}");
        }
        Ok(batch == served)
    }
}

/// Replay `programs` on two memo-off sessions over `store` (whose
/// `SnapIds` lists snapshots `1..=count`), in parallel; the digest of
/// each replay's answer, in order.
fn replay_all(
    store: &Arc<RetroStore>,
    count: u64,
    programs: &[&String],
) -> std::io::Result<Vec<Option<Digest>>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Digest>>> = programs.iter().map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<std::io::Error>> = Mutex::new(None);
    thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let session = match session_over(store, count) {
                    Ok(s) => s,
                    Err(e) => {
                        *failure.lock().expect("oracle lock") = Some(e);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(text) = programs.get(i) else {
                        return;
                    };
                    let replay = parse_program(text)
                        .map_err(|d| other(d.message))
                        .and_then(|p| run_program_with_reports(&session, &p).map_err(other));
                    match replay {
                        Ok(run) => {
                            *slots[i].lock().expect("oracle lock") =
                                Some(Digest::of_results(&run.tables));
                        }
                        Err(e) => eprintln!("oracle: replay failed for {text:?}: {e}"),
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("oracle lock") {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().expect("oracle lock"))
        .collect())
}
